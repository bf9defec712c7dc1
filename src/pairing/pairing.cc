#include "pairing/pairing.h"

#include "bigint/prime.h"
#include "util/secure.h"

namespace reed::pairing {

TypeAParams TypeAParams::Generate(std::size_t rbits, std::size_t pbits,
                                  crypto::Rng& rng) {
  if (pbits <= rbits + 4) {
    throw Error("TypeAParams::Generate: pbits must exceed rbits");
  }
  BigInt r = bigint::GeneratePrime(rbits, rng);
  std::size_t hbits = pbits - rbits;
  for (;;) {
    // h divisible by 4 forces p = h*r - 1 ≡ 3 (mod 4).
    BigInt h0 = BigInt::RandomBits(rng, hbits - 2);
    BigInt top = BigInt(1) << (hbits - 3);
    if (h0 < top) h0 += top;
    BigInt h = h0 << 2;
    BigInt p = h * r - BigInt(1);
    if (p.BitLength() != pbits) continue;
    if (bigint::IsProbablePrime(p, rng)) {
      return TypeAParams{p, r, h};
    }
  }
}

TypeAParams TypeAParams::Default() {
  // Generated once with TypeAParams::Generate(160, 512, DeterministicRng(2016))
  // and pinned here so benchmarks and tests share a stable group.
  static const char* kP =
      "823e5729f8509ad2c440c05d15602d97800ffc6468c49b14e5f634a9f3ab3cab"
      "33d3426b83ee5ada87dd46e3b5e960842a784a17c98a2ee897b71a9e134df55b";
  static const char* kR = "98013696af9eed4c6400331aef9d92f1fa854a7b";
  TypeAParams params;
  params.p = BigInt::FromHex(kP);
  params.r = BigInt::FromHex(kR);
  params.cofactor = (params.p + BigInt(1)) / params.r;
  return params;
}

TypeAPairing::TypeAPairing(TypeAParams params)
    : params_(std::move(params)),
      field_(std::make_unique<FpField>(params_.p)),
      mod_r_(params_.r) {
  if ((params_.cofactor * params_.r) != params_.p + BigInt(1)) {
    throw Error("TypeAPairing: cofactor * r must equal p + 1");
  }
  generator_ = HashToG1(field_.get(), params_.cofactor,
                        ToBytes("reed/pairing-generator"));
}

G1Point TypeAPairing::HashToGroup(ByteSpan data) const {
  return HashToG1(field_.get(), params_.cofactor, data);
}

BigInt TypeAPairing::RandomScalar(crypto::Rng& rng) const {
  for (;;) {
    BigInt s = BigInt::Random(rng, params_.r);
    if (!s.IsZero()) return s;
  }
}

namespace {

// The Miller loop's running point V in Jacobian coordinates: (X, Y, Z)
// stands for the affine point (X/Z², Y/Z³), so no step needs a field
// inversion. Once a vertical line sends V to infinity it stays there.
struct MillerPoint {
  Fp x, y, z;
  bool infinity = false;
};

// A tangent or chord line times its F_p scaling: a·xq + b + (c·yq)·i at
// φ(Q) = (−xq, i·yq).
struct LineCoeffs {
  Fp a, b, c;
};

// Doubles V (Y ≠ 0) in place and returns the tangent line at the old V,
// scaled by 2YZ³ ∈ F_p*. With λ = M/(2YZ), M = 3X² + Z⁴, the affine line
// λ(xq + X/Z²) − Y/Z³ + yq·i times 2YZ³ is
// M·Z²·xq + (M·X − 2Y²)  +  (2YZ·Z²·yq)·i.
LineCoeffs DoubleStep(MillerPoint& v) {
  Fp x2 = v.x.Square();
  Fp y2 = v.y.Square();
  Fp z2 = v.z.Square();
  Fp m = x2 + x2 + x2 + z2.Square();  // 3X² + Z⁴
  Fp z3 = (v.y + v.y) * v.z;          // 2YZ
  Fp two_y2 = y2 + y2;
  LineCoeffs line{m * z2, m * v.x - two_y2, z3 * z2};

  Fp s = v.x * two_y2;
  s = s + s;  // 4XY²
  Fp x3 = m.Square() - (s + s);
  Fp eight_y4 = two_y2.Square();
  eight_y4 = eight_y4 + eight_y4;
  v.y = m * (s - x3) - eight_y4;
  v.x = std::move(x3);
  v.z = std::move(z3);
  return line;
}

// The Miller loop's walk of V over the bits of r for first argument P
// (not infinity). Each step calls sink.Square(), then sink.Line() for the
// tangent and, on a set bit, the chord; vertical lines have values in F_p
// and are skipped. The sink either multiplies each line into f at once
// (MillerLoop) or records it (Prepare).
template <typename Sink>
void WalkMiller(const G1Point& p, const BigInt& r, Sink& sink) {
  const Fp& xp = p.x();
  const Fp& yp = p.y();
  MillerPoint v{xp, yp, Fp::One(xp.field())};
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    sink.Square();
    if (!v.infinity) {
      if (v.y.IsZero()) {
        // Vertical tangent: V just moves to infinity.
        v.infinity = true;
      } else {
        sink.Line(DoubleStep(v));
      }
    }
    if (!r.Bit(i) || v.infinity) continue;
    // Mixed addition V + P with P affine: H = xp·Z² − X, R = yp·Z³ − Y.
    Fp z2 = v.z.Square();
    Fp h = xp * z2 - v.x;
    Fp rr = yp * z2 * v.z - v.y;
    if (h.IsZero()) {
      // Vertical chord, no line. V = −P goes to infinity; V = P (only
      // possible when P lies outside the order-r subgroup) doubles.
      if (!rr.IsZero() || v.y.IsZero()) {
        v.infinity = true;
      } else {
        (void)DoubleStep(v);
      }
      continue;
    }
    // With λ = R/(Z·H), the chord through V and P at φ(Q) is
    // λ(xq + xp) − yp + yq·i; scaled by Z3 = Z·H ∈ F_p* it is
    // R·xq + (R·xp − yp·Z3)  +  (yq·Z3)·i.
    Fp z3 = v.z * h;
    sink.Line({rr, rr * xp - yp * z3, z3});
    Fp h2 = h.Square();
    Fp h3 = h2 * h;
    Fp u1h2 = v.x * h2;
    Fp x3 = rr.Square() - h3 - (u1h2 + u1h2);
    v.y = rr * (u1h2 - x3) - v.y * h3;
    v.x = std::move(x3);
    v.z = std::move(z3);
  }
}

// The value of a line at φ(Q).
Fp2 LineAt(const Fp& a, const Fp& b, const Fp& c, const G1Point& q) {
  return Fp2(a * q.x() + b, c * q.y());
}

struct EvaluateSink {
  Fp2 f;
  const G1Point& q;
  void Square() { f = f.Square(); }
  void Line(const LineCoeffs& l) { f = f * LineAt(l.a, l.b, l.c, q); }
};

}  // namespace

Fp2 TypeAPairing::MillerLoop(const G1Point& p, const G1Point& q) const {
  EvaluateSink sink{Fp2::One(field_.get()), q};
  if (p.is_infinity() || q.is_infinity()) return sink.f;
  WalkMiller(p, params_.r, sink);
  return sink.f;
}

MillerLines::~MillerLines() {
  SecureZero(std::span(reinterpret_cast<std::uint8_t*>(lines_.data()),
                       lines_.size() * sizeof(Line)));
  SecureZero(std::span(reinterpret_cast<std::uint8_t*>(&point_),
                       sizeof(point_)));
}

MillerLines TypeAPairing::Prepare(const G1Point& p) const {
  MillerLines out;
  out.point_ = p;
  if (p.is_infinity()) return out;
  struct RecordSink {
    MillerLines& out;
    void Square() {
      out.step_start_.push_back(static_cast<std::uint16_t>(out.lines_.size()));
    }
    void Line(const LineCoeffs& l) { out.lines_.push_back({l.a, l.b, l.c}); }
  } sink{out};
  // Two lines per step at most: reserving keeps the walk to one allocation
  // each, and no reallocation leaves an unwiped copy of a line behind.
  const std::size_t steps = params_.r.BitLength() - 1;
  std::size_t chords = 0;
  for (std::size_t i = 0; i < steps; ++i) chords += params_.r.Bit(i) ? 1 : 0;
  out.step_start_.reserve(steps + 1);
  out.lines_.reserve(steps + chords);
  WalkMiller(p, params_.r, sink);
  out.step_start_.push_back(static_cast<std::uint16_t>(out.lines_.size()));
  return out;
}

Fp2 TypeAPairing::MillerProduct(std::span<const MillerTerm> terms) const {
  const std::size_t steps = params_.r.BitLength() - 1;
  for (const MillerTerm& t : terms) {
    if (!t.lines->step_start_.empty() &&
        t.lines->step_start_.size() != steps + 1) {
      throw Error("MillerProduct: lines recorded under another group order");
    }
  }
  Fp2 f = Fp2::One(field_.get());
  for (std::size_t k = 0; k < steps; ++k) {
    f = f.Square();
    for (const MillerTerm& t : terms) {
      const MillerLines& lines = *t.lines;
      // Infinity on either side contributes 1, as in MillerLoop.
      if (lines.step_start_.empty() || t.q->is_infinity()) continue;
      for (std::size_t j = lines.step_start_[k]; j < lines.step_start_[k + 1];
           ++j) {
        const MillerLines::Line& l = lines.lines_[j];
        f = f * LineAt(l.a, l.b, l.c, *t.q);
      }
    }
  }
  return f;
}

Fp2 TypeAPairing::FinalExponentiation(const Fp2& f) const {
  // (p² − 1)/r = (p − 1) · cofactor. f^p is the Frobenius = conjugate in
  // F_p², so f^(p−1) = conj(f) · f^{−1}; one |h|-bit pow finishes the job.
  Fp2 g = f.Conjugate() * f.Inverse();
  return g.Pow(params_.cofactor);
}

Fp2 TypeAPairing::Pair(const G1Point& p, const G1Point& q) const {
  Fp2 f = MillerLoop(p, q);
  return FinalExponentiation(f);
}

}  // namespace reed::pairing
