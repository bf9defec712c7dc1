#include "pairing/curve.h"

#include "crypto/sha256.h"

namespace reed::pairing {

bool G1Point::operator==(const G1Point& o) const {
  if (infinity_ || o.infinity_) return infinity_ == o.infinity_;
  return x_ == o.x_ && y_ == o.y_;
}

bool G1Point::IsOnCurve() const {
  if (infinity_) return true;
  // y² = x³ + x
  return y_.Square() == x_.Square() * x_ + x_;
}

G1Point G1Point::Neg() const {
  if (infinity_) return *this;
  return G1Point(x_, y_.Neg());
}

G1Point G1Point::Double() const {
  if (infinity_) return *this;
  if (y_.IsZero()) return Infinity();  // order-2 point
  const FpField* f = x_.field();
  // λ = (3x² + 1) / 2y
  Fp three_x2 = Fp::FromU64(f, 3) * x_.Square();
  Fp lambda = (three_x2 + Fp::One(f)) * (y_ + y_).Inverse();
  Fp x3 = lambda.Square() - x_ - x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(std::move(x3), std::move(y3));
}

G1Point G1Point::Add(const G1Point& o) const {
  if (infinity_) return o;
  if (o.infinity_) return *this;
  if (x_ == o.x_) {
    if (y_ == o.y_) return Double();
    return Infinity();  // P + (-P)
  }
  // λ = (y2 - y1) / (x2 - x1)
  Fp lambda = (o.y_ - y_) * (o.x_ - x_).Inverse();
  Fp x3 = lambda.Square() - x_ - o.x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(std::move(x3), std::move(y3));
}

namespace {

// Jacobian-coordinate point (X, Y, Z) representing (X/Z², Y/Z³): point
// doubling/addition without per-step field inversions, which makes scalar
// multiplication ~10x faster than the affine ladder. Curve: y² = x³ + x
// (a = 1).
struct Jacobian {
  Fp x, y, z;
  bool infinity;
};

Jacobian JacDouble(const Jacobian& p) {
  if (p.infinity || p.y.IsZero()) return {p.x, p.y, p.z, true};
  // Small multiples by repeated addition: no constant is built per step.
  Fp y2 = p.y.Square();
  Fp s = p.x * y2;
  s = s + s;
  s = s + s;                                        // 4XY²
  Fp x2 = p.x.Square();
  Fp m = x2 + x2 + x2 + p.z.Square().Square();      // 3X²+aZ⁴
  Fp x3 = m.Square() - (s + s);
  Fp y4 = y2.Square();
  Fp eight_y4 = y4 + y4;
  eight_y4 = eight_y4 + eight_y4;
  eight_y4 = eight_y4 + eight_y4;
  Fp y3 = m * (s - x3) - eight_y4;
  Fp z3 = (p.y + p.y) * p.z;
  return {x3, y3, z3, false};
}

// Mixed addition: q is affine (Z = 1).
Jacobian JacAddAffine(const Jacobian& p, const Fp& qx, const Fp& qy) {
  if (p.infinity) return {qx, qy, Fp::One(qx.field()), false};
  Fp z2 = p.z.Square();
  Fp u2 = qx * z2;            // U2 = x2 Z1²
  Fp s2 = qy * z2 * p.z;      // S2 = y2 Z1³
  Fp h = u2 - p.x;
  Fp r = s2 - p.y;
  if (h.IsZero()) {
    if (r.IsZero()) return JacDouble(p);  // same point
    return {p.x, p.y, p.z, true};         // inverse points
  }
  Fp h2 = h.Square();
  Fp h3 = h2 * h;
  Fp u1h2 = p.x * h2;
  Fp x3 = r.Square() - h3 - (u1h2 + u1h2);
  Fp y3 = r * (u1h2 - x3) - p.y * h3;
  Fp z3 = p.z * h;
  return {x3, y3, z3, false};
}

}  // namespace

G1Point G1Point::ScalarMul(const BigInt& k) const {
  if (infinity_ || k.IsZero()) return Infinity();
  const FpField* f = x_.field();
  Jacobian acc{x_, y_, Fp::One(f), true};
  acc.infinity = true;
  for (std::size_t i = k.BitLength(); i-- > 0;) {
    acc = JacDouble(acc);
    if (k.Bit(i)) acc = JacAddAffine(acc, x_, y_);
  }
  if (acc.infinity) return Infinity();
  // Back to affine with a single inversion.
  Fp zinv = acc.z.Inverse();
  Fp zinv2 = zinv.Square();
  return G1Point(acc.x * zinv2, acc.y * zinv2 * zinv);
}

Bytes G1Point::ToBytes(const FpField* f) const {
  Bytes out;
  out.reserve(SerializedSize(f));
  if (infinity_) {
    out.assign(SerializedSize(f), 0);
    return out;
  }
  out.push_back(1);
  Append(out, x_.ToBytes());
  Append(out, y_.ToBytes());
  return out;
}

G1Point G1Point::FromBytes(const FpField* f, ByteSpan bytes) {
  if (bytes.size() != SerializedSize(f)) {
    throw Error("G1Point::FromBytes: bad length");
  }
  if (bytes[0] == 0) return Infinity();
  std::size_t eb = f->element_bytes();
  G1Point pt(Fp::FromBytes(f, bytes.subspan(1, eb)),
             Fp::FromBytes(f, bytes.subspan(1 + eb, eb)));
  if (!pt.IsOnCurve()) throw Error("G1Point::FromBytes: point not on curve");
  return pt;
}

G1Point HashToG1(const FpField* field, const BigInt& cofactor, ByteSpan data) {
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes input = ToBytes("reed/hash-to-g1");
    AppendU32(input, counter);
    Append(input, data);
    // Expand to the field width so x covers all of F_p.
    Bytes expanded;
    std::uint32_t block = 0;
    while (expanded.size() < field->element_bytes()) {
      Bytes sub = input;
      AppendU32(sub, block++);
      crypto::Sha256Digest d = crypto::Sha256::Hash(sub);
      expanded.insert(expanded.end(), d.begin(), d.end());
    }
    expanded.resize(field->element_bytes());
    Fp x = Fp::FromBigInt(field, BigInt::FromBytes(expanded));

    Fp rhs = x.Square() * x + x;  // x³ + x
    Fp y;
    if (!rhs.Sqrt(&y)) continue;
    G1Point pt(x, y);
    G1Point in_subgroup = pt.ScalarMul(cofactor);
    if (in_subgroup.is_infinity()) continue;  // negligible probability
    return in_subgroup;
  }
}

}  // namespace reed::pairing
