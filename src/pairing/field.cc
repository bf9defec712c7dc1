#include "pairing/field.h"

namespace reed::pairing {

FpField::FpField(BigInt p) : kernel_(p) {
  if (p.ModLimb(4) != 3) {
    throw Error("FpField: p must be congruent to 3 mod 4");
  }
  sqrt_exp_ = (p + BigInt(1)) >> 2;
  ebytes_ = (p.BitLength() + 7) / 8;
}

Fp Fp::FromBigInt(const FpField* f, const BigInt& plain) {
  return Fp(f, f->kernel().ToMont(plain));
}

Fp Fp::FromU64(const FpField* f, std::uint64_t v) {
  return FromBigInt(f, BigInt(v));
}

Fp Fp::Random(const FpField* f, crypto::Rng& rng) {
  return FromBigInt(f, BigInt::Random(rng, f->p()));
}

BigInt Fp::ToBigInt() const {
  return FpField::Kernel::ToBigInt(field_->kernel().FromMont(v_));
}

Bytes Fp::ToBytes() const {
  return ToBigInt().ToBytesPadded(field_->element_bytes());
}

Fp Fp::FromBytes(const FpField* f, ByteSpan b) {
  if (b.size() != f->element_bytes()) {
    throw Error("Fp::FromBytes: bad length");
  }
  BigInt v = BigInt::FromBytes(b);
  if (v >= f->p()) throw Error("Fp::FromBytes: value out of range");
  return FromBigInt(f, v);
}

Fp Fp::operator+(const Fp& o) const {
  // Montgomery form is additive: (aR + bR) mod p = (a+b)R mod p.
  Fp out(field_, {});
  field_->kernel().Add(out.v_, v_, o.v_);
  return out;
}

Fp Fp::operator-(const Fp& o) const {
  Fp out(field_, {});
  field_->kernel().Sub(out.v_, v_, o.v_);
  return out;
}

Fp Fp::operator*(const Fp& o) const {
  Fp out(field_, {});
  field_->kernel().Mul(out.v_, v_, o.v_);
  return out;
}

Fp Fp::Square() const {
  Fp out(field_, {});
  field_->kernel().Square(out.v_, v_);
  return out;
}

Fp Fp::Neg() const {
  Fp out(field_, {});
  field_->kernel().Neg(out.v_, v_);
  return out;
}

Fp Fp::Inverse() const {
  if (IsZero()) throw Error("Fp::Inverse: zero has no inverse");
  // Leaves Montgomery form, inverts the plain value with the binary
  // extended GCD (BigInt::InverseMod), and converts back. At ~25 µs this is
  // worth dozens of multiplications, which is why the Miller loop works in
  // Jacobian coordinates and never calls it per step.
  BigInt plain = ToBigInt();
  return FromBigInt(field_, BigInt::InverseMod(plain, field_->p()));
}

Fp Fp::Pow(const BigInt& e) const {
  Fp out(field_, {});
  field_->kernel().Pow(out.v_, v_, e);
  return out;
}

bool Fp::Sqrt(Fp* out) const {
  if (IsZero()) {
    *out = *this;
    return true;
  }
  Fp candidate = Pow(field_->sqrt_exp());
  if (candidate.Square() == *this) {
    *out = candidate;
    return true;
  }
  return false;
}

// --------------------------- Fp2 ---------------------------

bool Fp2::IsOne() const {
  return b_.IsZero() && a_ == Fp::One(a_.field());
}

Fp2 Fp2::operator*(const Fp2& o) const {
  // Karatsuba: 3 Fp multiplications.
  Fp ac = a_ * o.a_;
  Fp bd = b_ * o.b_;
  Fp cross = (a_ + b_) * (o.a_ + o.b_);
  return Fp2(ac - bd, cross - ac - bd);
}

Fp2 Fp2::Square() const {
  // (a+bi)^2 = (a+b)(a-b) + 2ab·i
  Fp re = (a_ + b_) * (a_ - b_);
  Fp ab = a_ * b_;
  return Fp2(re, ab + ab);
}

Fp2 Fp2::Inverse() const {
  // (a+bi)^-1 = (a-bi) / (a² + b²)
  Fp norm = a_.Square() + b_.Square();
  Fp ninv = norm.Inverse();
  return Fp2(a_ * ninv, b_.Neg() * ninv);
}

Fp2 Fp2::Pow(const BigInt& e) const {
  Fp2 result = One(a_.field());
  for (std::size_t i = e.BitLength(); i-- > 0;) {
    result = result.Square();
    if (e.Bit(i)) result = result * *this;
  }
  return result;
}

Bytes Fp2::ToBytes() const {
  return Concat(a_.ToBytes(), b_.ToBytes());
}

Fp2 Fp2::FromBytes(const FpField* f, ByteSpan bytes) {
  std::size_t eb = f->element_bytes();
  if (bytes.size() != 2 * eb) throw Error("Fp2::FromBytes: bad length");
  return Fp2(Fp::FromBytes(f, bytes.subspan(0, eb)),
             Fp::FromBytes(f, bytes.subspan(eb)));
}

}  // namespace reed::pairing
