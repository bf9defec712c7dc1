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

// Jacobian doubling and mixed addition: no field inversion per step, which
// makes scalar multiplication ~10x faster than the affine ladder. Curve:
// y² = x³ + x (a = 1).
G1Jacobian JacDouble(const G1Jacobian& p) {
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
G1Jacobian JacAddAffine(const G1Jacobian& p, const Fp& qx, const Fp& qy) {
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

bool AnyInfinity(const std::vector<G1Jacobian>& points) {
  for (const G1Jacobian& p : points) {
    if (p.infinity) return true;
  }
  return false;
}

}  // namespace

G1Jacobian G1Jacobian::FromAffine(const G1Point& p) {
  if (p.is_infinity()) return {};
  return {p.x(), p.y(), Fp::One(p.x().field()), false};
}

G1Jacobian G1Point::ScalarMulJacobian(const BigInt& k) const {
  G1Jacobian acc;
  if (infinity_) return acc;
  for (std::size_t i = k.BitLength(); i-- > 0;) {
    acc = JacDouble(acc);
    if (k.Bit(i)) acc = JacAddAffine(acc, x_, y_);
  }
  return acc;
}

G1Point G1Point::ScalarMul(const BigInt& k) const {
  return BatchToAffine({ScalarMulJacobian(k)}).front();
}

std::vector<G1Point> BatchToAffine(const std::vector<G1Jacobian>& points) {
  std::vector<G1Point> out(points.size());
  // prefix[k] = Z_0 · … · Z_k over the finite entries, in order.
  std::vector<Fp> prefix;
  prefix.reserve(points.size());
  for (const G1Jacobian& p : points) {
    if (!p.infinity) prefix.push_back(prefix.empty() ? p.z : prefix.back() * p.z);
  }
  if (prefix.empty()) return out;
  Fp inv = prefix.back().Inverse();
  std::size_t k = prefix.size();
  for (std::size_t i = points.size(); i-- > 0;) {
    const G1Jacobian& p = points[i];
    if (p.infinity) continue;
    // Here inv = 1 / (Z_0 · … · Z_k), so 1/Z_k = inv · prefix[k − 1].
    --k;
    Fp zinv = k > 0 ? inv * prefix[k - 1] : inv;
    inv = inv * p.z;
    Fp zinv2 = zinv.Square();
    out[i] = G1Point(p.x * zinv2, p.y * zinv2 * zinv);
  }
  return out;
}

std::optional<G1FixedBase> G1FixedBase::Build(const G1Point& base,
                                              std::size_t scalar_bits) {
  if (base.is_infinity()) return std::nullopt;
  const std::size_t windows = Windows(scalar_bits);
  // One doubling chain gives each window's base B_i = 16^i·P and its 2B_i,
  // 4B_i and 8B_i on the way to B_{i+1}.
  std::vector<G1Jacobian> bases(windows), evens(3 * windows);
  G1Jacobian cur = G1Jacobian::FromAffine(base);
  for (std::size_t i = 0; i < windows; ++i) {
    bases[i] = cur;
    for (std::size_t e = 0; e < 3; ++e) evens[3 * i + e] = cur = JacDouble(cur);
    cur = JacDouble(cur);
  }
  if (AnyInfinity(bases) || AnyInfinity(evens)) return std::nullopt;
  std::vector<G1Point> b = BatchToAffine(bases);

  // The odd multiples by one mixed addition each (7B = 8B − B), 6B by
  // doubling 3B.
  std::vector<G1Jacobian> entries(kEntries * windows);
  for (std::size_t i = 0; i < windows; ++i) {
    const Fp& bx = b[i].x();
    const Fp& by = b[i].y();
    G1Jacobian* e = &entries[kEntries * i];  // e[j − 1] = j·B_i
    e[0] = G1Jacobian::FromAffine(b[i]);
    e[1] = evens[3 * i];
    e[3] = evens[3 * i + 1];
    e[7] = evens[3 * i + 2];
    e[2] = JacAddAffine(e[1], bx, by);
    e[4] = JacAddAffine(e[3], bx, by);
    e[5] = JacDouble(e[2]);
    e[6] = JacAddAffine(e[7], bx, by.Neg());
  }
  if (AnyInfinity(entries)) return std::nullopt;

  G1FixedBase table(base, scalar_bits);
  table.x_.reserve(entries.size());
  table.y_.reserve(entries.size());
  for (const G1Point& p : BatchToAffine(entries)) {
    table.x_.push_back(p.x().mont());
    table.y_.push_back(p.y().mont());
  }
  return table;
}

G1Jacobian G1FixedBase::Mul(const BigInt& k) const {
  if (k.BitLength() > scalar_bits_) return base_.ScalarMulJacobian(k);
  const FpField* f = base_.x().field();
  G1Jacobian acc;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < Windows(scalar_bits_); ++i) {
    const std::size_t bit = i * kDigitBits;
    // v ∈ [0, 16]; v > 8 becomes the digit v − 16 and carries one.
    const std::uint64_t v = ((k.Limb(bit / 64) >> (bit % 64)) & 0xF) + carry;
    const std::uint64_t neg = (8 - v) >> 63;
    const std::uint64_t mag = v ^ ((v ^ (16 - v)) & (0 - neg));
    carry = neg;
    // Select entry mag − 1 by scanning all of the window's entries under a
    // mask: no load address depends on the (secret) digit.
    FpField::Limbs x{}, y{};
    for (std::size_t j = 0; j < kEntries; ++j) {
      const std::uint64_t mask = 0 - (((mag ^ (j + 1)) - 1) >> 63);
      const FpField::Limbs& ex = x_[kEntries * i + j];
      const FpField::Limbs& ey = y_[kEntries * i + j];
      for (std::size_t l = 0; l < FpField::kLimbs; ++l) {
        x[l] |= ex[l] & mask;
        y[l] |= ey[l] & mask;
      }
    }
    FpField::Limbs ny;
    f->kernel().Neg(ny, y);
    for (std::size_t l = 0; l < FpField::kLimbs; ++l) {
      y[l] ^= (y[l] ^ ny[l]) & (0 - neg);
    }
    // The branches left on the digits: a zero digit (1 in 16) skips its
    // addition, and JacAddAffine branches on an infinite accumulator (up to
    // the first nonzero digit) and on its doubling/inverse cases, which a
    // random scalar reaches with negligible probability.
    if (mag == 0) continue;
    acc = JacAddAffine(acc, Fp::FromMont(f, x), Fp::FromMont(f, y));
  }
  return acc;
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
