#include "abe/cpabe.h"

#include <type_traits>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "util/secure.h"

namespace reed::abe {

namespace {

// Zeroes a secret key point in place. A G1Point is plain data (field
// pointer, limbs, flag), so its bytes are the whole of it.
void WipePoint(G1Point& p) {
  static_assert(std::is_trivially_copyable_v<G1Point>);
  SecureZero(std::span(reinterpret_cast<std::uint8_t*>(&p), sizeof(p)));
}

}  // namespace

AttributeKey::~AttributeKey() {
  WipePoint(d);
  WipePoint(d_prime);
}

PrivateKey::~PrivateKey() { WipePoint(d); }

namespace {
constexpr std::size_t kIvSize = 16;
constexpr std::size_t kMacSize = 32;

// Wall time of each hybrid encrypt/decrypt, the whole CP-ABE cost of a
// key-state wrap or unwrap, and the fixed-base tables under them. Resolved
// once per process, like the client's stage metrics.
struct AbeMetrics {
  obs::Histogram* encrypt_us;
  obs::Histogram* decrypt_us;
  obs::Counter* table_builds;
  obs::Gauge* table_bytes;  // held by every live CpAbe
  obs::Histogram* table_build_us;
  // Multiplies of a base without a table: nonzero once the budget is full.
  obs::Counter* table_fallback_muls;
  // One sample per key point whose Miller lines are recorded: 1 + 2 per
  // attribute at KeyGen or key load, and one per stale handle at decrypt.
  obs::Histogram* prepare_us;
};

AbeMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static AbeMetrics m{&reg.GetHistogram("abe.encrypt_us"),
                      &reg.GetHistogram("abe.decrypt_us"),
                      &reg.GetCounter("abe.table.builds"),
                      &reg.GetGauge("abe.table.bytes"),
                      &reg.GetHistogram("abe.table.build_us"),
                      &reg.GetCounter("abe.table.fallback_muls"),
                      &reg.GetHistogram("abe.prepare_us")};
  return m;
}

// A hybrid ciphertext's CP-ABE part with its structure checked and only
// C̃ and C decoded; leaf points stay bytes until Leaf() decodes one.
struct CiphertextView {
  PolicyNode policy;
  Fp2 c_tilde;
  G1Point c;
  std::size_t leaf_count = 0;
  ByteSpan leaves;  // leaf_count × (C_y || C'_y)

  CiphertextLeaf Leaf(const pairing::FpField* f, std::size_t i) const {
    const std::size_t pt = G1Point::SerializedSize(f);
    return {G1Point::FromBytes(f, leaves.subspan(2 * pt * i, pt)),
            G1Point::FromBytes(f, leaves.subspan(2 * pt * i + pt, pt))};
  }
};

CiphertextView ParseCiphertext(const pairing::FpField* f, ByteSpan blob) {
  std::size_t fp2 = 2 * f->element_bytes();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (n > blob.size() - off) throw Error("Ciphertext: truncated");
  };
  need(4);
  std::uint32_t policy_len = GetU32(blob.subspan(off));
  off += 4;
  need(policy_len);
  CiphertextView view;
  view.policy = PolicyNode::Deserialize(blob.subspan(off, policy_len));
  off += policy_len;
  need(fp2);
  view.c_tilde = Fp2::FromBytes(f, blob.subspan(off, fp2));
  off += fp2;
  need(pt);
  view.c = G1Point::FromBytes(f, blob.subspan(off, pt));
  off += pt;
  need(4);
  std::uint32_t nleaves = GetU32(blob.subspan(off));
  off += 4;
  if (nleaves != view.policy.LeafCount()) {
    throw Error("Ciphertext: leaf count mismatch with policy");
  }
  need(std::size_t{nleaves} * 2 * pt);
  view.leaf_count = nleaves;
  view.leaves = blob.subspan(off, std::size_t{nleaves} * 2 * pt);
  off += view.leaves.size();
  if (off != blob.size()) throw Error("Ciphertext: trailing bytes");
  return view;
}

// True if the key's attributes satisfy the (sub)tree.
bool Satisfied(const PolicyNode& node, const PrivateKey& sk) {
  if (node.IsLeaf()) return sk.components.count(node.attribute()) != 0;
  std::size_t satisfied = 0;
  for (const PolicyNode& child : node.children()) {
    if (Satisfied(child, sk) && ++satisfied >= node.threshold()) return true;
  }
  return false;
}
}  // namespace

std::vector<std::string> PrivateKey::Attributes() const {
  std::vector<std::string> out;
  out.reserve(components.size());
  for (const auto& [attr, unused] : components) out.push_back(attr);
  return out;
}

CpAbe::CpAbe(std::shared_ptr<const TypeAPairing> pairing)
    : pairing_(std::move(pairing)) {
  if (!pairing_) throw Error("CpAbe: null pairing");
}

CpAbe::~CpAbe() {
  MutexLock lock(memo_mu_);
  Metrics().table_bytes->Add(-static_cast<std::int64_t>(table_bytes_));
}

CpAbe::Base CpAbe::MakeBase(const G1Point& point) const {
  const std::size_t bits = pairing_->group_order().BitLength();
  {
    MutexLock lock(memo_mu_);
    if (table_bytes_ + pairing::G1FixedBase::BytesFor(bits) >
        kTableBudgetBytes) {
      return {point, nullptr};
    }
  }
  AbeMetrics& m = Metrics();
  obs::ScopedTimer timer(*m.table_build_us);
  std::optional<pairing::G1FixedBase> table =
      pairing::G1FixedBase::Build(point, bits);
  if (!table.has_value()) return {point, nullptr};
  m.table_builds->Increment();
  return {point,
          std::make_shared<const pairing::G1FixedBase>(std::move(*table))};
}

void CpAbe::Admit(Base& entry) const {
  if (!entry.table) return;
  const std::size_t bytes = entry.table->bytes();
  if (table_bytes_ + bytes > kTableBudgetBytes) {
    entry.table.reset();
    return;
  }
  table_bytes_ += bytes;
  Metrics().table_bytes->Add(static_cast<std::int64_t>(bytes));
}

CpAbe::Base CpAbe::AttributeBase(const std::string& attribute) const {
  {
    MutexLock lock(memo_mu_);
    auto it = attr_cache_.find(attribute);
    if (it != attr_cache_.end()) return it->second;
  }
  Base fresh = MakeBase(
      pairing_->HashToGroup(ToBytes("reed/abe-attr:" + attribute)));
  MutexLock lock(memo_mu_);
  auto [it, inserted] = attr_cache_.try_emplace(attribute, std::move(fresh));
  if (inserted) Admit(it->second);
  return it->second;
}

CpAbe::Base CpAbe::KeyBase(const G1Point& point) const {
  auto find = [&]() REED_REQUIRES(memo_mu_) -> const Base* {
    for (const Base& b : key_bases_) {
      if (b.point == point) return &b;
    }
    return nullptr;
  };
  {
    MutexLock lock(memo_mu_);
    if (const Base* b = find()) return *b;
  }
  Base fresh = MakeBase(point);
  MutexLock lock(memo_mu_);
  if (const Base* b = find()) return *b;
  key_bases_.push_back(std::move(fresh));
  Admit(key_bases_.back());
  return key_bases_.back();
}

pairing::G1Jacobian CpAbe::Mul(const Base& base, const BigInt& k) const {
  if (base.table) return base.table->Mul(k);
  Metrics().table_fallback_muls->Increment();
  return base.point.ScalarMulJacobian(k);
}

Fp2 CpAbe::GeneratorPairing(const G1Point& g) const {
  {
    MutexLock lock(memo_mu_);
    if (e_gg_cache_.has_value() && e_gg_cache_->first == g) {
      return e_gg_cache_->second;
    }
  }
  Fp2 e_gg = pairing_->Pair(g, g);
  MutexLock lock(memo_mu_);
  e_gg_cache_.emplace(g, e_gg);
  return e_gg;
}

CpAbe::SetupResult CpAbe::Setup(crypto::Rng& rng) const {
  const G1Point& g = pairing_->generator();
  BigInt alpha = pairing_->RandomScalar(rng);
  BigInt beta = pairing_->RandomScalar(rng);

  SetupResult out;
  out.pk.g = g;
  out.pk.h = g.ScalarMul(beta);
  G1Point g_alpha = g.ScalarMul(alpha);
  out.pk.e_gg_alpha = pairing_->Pair(g, g_alpha);
  out.mk.beta = beta;
  out.mk.g_alpha = g_alpha;
  return out;
}

PrivateKey CpAbe::KeyGen(const PublicKey& pk, const MasterKey& mk,
                         const std::vector<std::string>& attributes,
                         crypto::Rng& rng) const {
  if (attributes.empty()) throw Error("CpAbe::KeyGen: empty attribute set");
  const BigInt& r = pairing_->group_order();
  BigInt t = pairing_->RandomScalar(rng);
  BigInt beta_inv = BigInt::InverseMod(mk.beta, r);

  // g^t, then H(j)^{t_j} and g^{t_j} per attribute, all converted to
  // affine together.
  const Base g = KeyBase(pk.g);
  std::vector<pairing::G1Jacobian> products{Mul(g, t)};
  for (const auto& attr : attributes) {
    BigInt tj = pairing_->RandomScalar(rng);
    products.push_back(Mul(AttributeBase(attr), tj));
    products.push_back(Mul(g, tj));
  }
  std::vector<G1Point> affine = pairing::BatchToAffine(products);
  const G1Point& g_t = affine[0];

  PrivateKey sk;
  sk.d = mk.g_alpha.Add(g_t).ScalarMul(beta_inv);
  for (std::size_t j = 0; j < attributes.size(); ++j) {
    AttributeKey comp;
    comp.d = g_t.Add(affine[1 + 2 * j]);
    comp.d_prime = std::move(affine[2 + 2 * j]);
    if (!sk.components.emplace(attributes[j], std::move(comp)).second) {
      throw Error("CpAbe::KeyGen: duplicate attribute");
    }
  }
  PrepareKey(sk);
  return sk;
}

KeyLines CpAbe::PreparePoint(const G1Point& point) const {
  obs::ScopedTimer timer(*Metrics().prepare_us);
  return std::make_shared<const pairing::MillerLines>(
      pairing_->Prepare(point));
}

void CpAbe::PrepareKey(PrivateKey& sk) const {
  sk.d_lines = PreparePoint(sk.d);
  for (auto& [attr, comp] : sk.components) {
    comp.d_lines = PreparePoint(comp.d);
    comp.neg_d_prime_lines = PreparePoint(comp.d_prime.Neg());
  }
}

KeyLines CpAbe::LinesFor(const KeyLines& lines, const G1Point& point) const {
  if (lines && lines->point() == point) return lines;
  return PreparePoint(point);
}

void CpAbe::ShareSecret(const PolicyNode& node, const BigInt& value,
                        crypto::Rng& rng,
                        std::vector<LeafShare>& leaf_shares) const {
  if (node.IsLeaf()) {
    leaf_shares.push_back({&node.attribute(), value});
    return;
  }
  const BigInt& r = pairing_->group_order();
  const bigint::MontContext& mod_r = pairing_->mod_r();
  // Random polynomial q of degree k-1 with q(0) = value; child i gets q(i).
  std::vector<BigInt> coeffs;
  coeffs.push_back(value % r);
  for (std::size_t i = 1; i < node.threshold(); ++i) {
    coeffs.push_back(BigInt::Random(rng, r));
  }
  for (std::size_t child = 0; child < node.children().size(); ++child) {
    BigInt x(static_cast<std::uint64_t>(child + 1));
    // Horner evaluation mod r.
    BigInt y = coeffs.back();
    for (std::size_t c = coeffs.size() - 1; c-- > 0;) {
      y = BigInt::AddMod(mod_r.Mul(y, x), coeffs[c], r);
    }
    ShareSecret(node.children()[child], y, rng, leaf_shares);
  }
}

Ciphertext CpAbe::EncryptElement(const PublicKey& pk, const Fp2& message,
                                 const PolicyNode& policy,
                                 crypto::Rng& rng) const {
  BigInt s = pairing_->RandomScalar(rng);
  std::vector<LeafShare> shares;
  shares.reserve(policy.LeafCount());
  ShareSecret(policy, s, rng, shares);

  Ciphertext ct;
  ct.policy = policy;
  ct.c_tilde = message * pk.e_gg_alpha.Pow(s);

  // Every G1 multiple of the ciphertext — h^s, one g^λ per distinct share
  // (a threshold-1 gate hands all its children the same one), and each
  // leaf's H(att(y))^{λ_y} — converted to affine together.
  std::vector<pairing::G1Jacobian> products{Mul(KeyBase(pk.h), s)};
  const Base g = KeyBase(pk.g);
  std::map<BigInt, std::size_t> g_share;  // share → index in products
  std::vector<std::pair<std::size_t, std::size_t>> leaf_index;
  leaf_index.reserve(shares.size());
  for (const LeafShare& leaf : shares) {
    auto [it, fresh] = g_share.try_emplace(leaf.share, products.size());
    if (fresh) products.push_back(Mul(g, leaf.share));
    products.push_back(Mul(AttributeBase(*leaf.attribute), leaf.share));
    leaf_index.emplace_back(it->second, products.size() - 1);
  }
  std::vector<G1Point> affine = pairing::BatchToAffine(products);
  ct.c = affine[0];
  ct.leaves.reserve(shares.size());
  for (const auto& [c, c_prime] : leaf_index) {
    ct.leaves.push_back({affine[c], affine[c_prime]});
  }
  return ct;
}

void CpAbe::ChooseLeaves(const PolicyNode& node, const PrivateKey& sk,
                         const BigInt& exponent,
                         std::size_t& leaf_index,
                         std::vector<PairedLeaf>& out) const {
  if (node.IsLeaf()) {
    out.push_back(
        {leaf_index++, &sk.components.at(node.attribute()), exponent});
    return;
  }
  // The first `threshold` satisfied children, recombined with Lagrange
  // coefficients Δ_i(0) = Π_{j≠i} (0 − x_j)/(x_i − x_j) mod r at x = i + 1.
  // The node's value is Π child_i^{Δ_i}, so a leaf's exponent is the
  // product of the coefficients on its path; a 1-of-n gate's is 1.
  const std::size_t k = node.threshold();
  std::vector<std::uint64_t> xs;
  for (std::size_t i = 0; i < node.children().size() && xs.size() < k; ++i) {
    if (Satisfied(node.children()[i], sk)) xs.push_back(i + 1);
  }
  const BigInt& r = pairing_->group_order();
  const bigint::MontContext& mod_r = pairing_->mod_r();
  std::size_t next = 0;  // the next chosen child, as an index into xs
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    const PolicyNode& child = node.children()[i];
    if (next == xs.size() || xs[next] != i + 1) {
      leaf_index += child.LeafCount();
      continue;
    }
    const std::uint64_t xi = xs[next++];
    BigInt child_exponent = exponent;
    if (k > 1) {
      BigInt num(1), den(1);
      for (std::uint64_t xj : xs) {
        if (xj == xi) continue;
        num = mod_r.Mul(num, r - BigInt(xj));  // (0 - x_j) mod r
        BigInt diff = (xi > xj) ? BigInt(xi - xj) : r - BigInt(xj - xi);
        den = mod_r.Mul(den, diff);
      }
      BigInt lambda = mod_r.Mul(num, BigInt::InverseMod(den, r));
      child_exponent = mod_r.Mul(exponent, lambda);
    }
    ChooseLeaves(child, sk, child_exponent, leaf_index, out);
  }
}

std::optional<Fp2> CpAbe::Decrypt(
    const PrivateKey& sk, const PolicyNode& policy, const Fp2& c_tilde,
    const G1Point& c,
    const std::function<CiphertextLeaf(std::size_t)>& leaf_at) const {
  if (!Satisfied(policy, sk)) return std::nullopt;
  const BigInt one(1);
  std::vector<PairedLeaf> paired;
  std::size_t leaf_index = 0;
  ChooseLeaves(policy, sk, one, leaf_index, paired);

  // M = C̃ · A / e(C, D). Per paired leaf, e(D_j, C_y) / e(D'_j, C'_y) =
  // e(g,g)^{t·λ_y}, the division being e(−D'_j, C'_y); and e(C, D)⁻¹ =
  // e(−C, D) = e(D, −C), as ê is symmetric on G1. So every pair has a key
  // point first and runs over its prepared lines. Pairs are multiplied as
  // Miller values, one shared loop per distinct leaf exponent (just one for
  // an OR policy), and the whole product pays one final exponentiation.
  std::vector<KeyLines> lines;  // keeps fresh preparations alive
  std::vector<G1Point> points;  // the Q of every term; never reallocates
  lines.reserve(1 + 2 * paired.size());
  points.reserve(1 + 2 * paired.size());
  std::map<BigInt, std::vector<pairing::MillerTerm>> groups;  // by exponent
  auto add_term = [&](const BigInt& exponent, const KeyLines& handle,
                      const G1Point& key_point, G1Point q) {
    lines.push_back(LinesFor(handle, key_point));
    points.push_back(std::move(q));
    groups[exponent].push_back({lines.back().get(), &points.back()});
  };
  add_term(one, sk.d_lines, sk.d, c.Neg());
  for (const PairedLeaf& leaf : paired) {
    CiphertextLeaf points_y = leaf_at(leaf.index);
    add_term(leaf.exponent, leaf.key->d_lines, leaf.key->d,
             std::move(points_y.c));
    add_term(leaf.exponent, leaf.key->neg_d_prime_lines,
             leaf.key->d_prime.Neg(), std::move(points_y.c_prime));
  }
  Fp2 f = Fp2::One(pairing_->field());
  for (const auto& [exponent, terms] : groups) {
    Fp2 product = pairing_->MillerProduct(terms);
    f = f * (exponent == one ? product : product.Pow(exponent));
  }
  return c_tilde * pairing_->FinalExponentiation(f);
}

std::optional<Fp2> CpAbe::DecryptElement(const PrivateKey& sk,
                                         const Ciphertext& ct) const {
  return Decrypt(sk, ct.policy, ct.c_tilde, ct.c,
                 [&ct](std::size_t i) { return ct.leaves.at(i); });
}

Secret CpAbe::EncryptBytes(const PublicKey& pk, const PolicyNode& policy,
                           const Secret& plaintext, crypto::Rng& rng) const {
  obs::ScopedTimer timer(*Metrics().encrypt_us);
  // Random GT element via e(g,g)^z; its hash keys the symmetric layer.
  BigInt z = pairing_->RandomScalar(rng);
  Fp2 m = GeneratorPairing(pk.g).Pow(z);
  Ciphertext ct = EncryptElement(pk, m, policy, rng);

  Bytes m_bytes = m.ToBytes();
  ScopedWipe wipe_m(m_bytes);
  Bytes kek = crypto::Sha256::HashToBytes(m_bytes);
  ScopedWipe wipe_kek(kek);
  Bytes enc_key = crypto::DeriveKey32(kek, "reed/abe-enc");
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(kek, "reed/abe-mac");
  ScopedWipe wipe_mac(mac_key);

  Bytes iv = rng.Generate(kIvSize);
  Bytes payload =
      crypto::AesCtrEncrypt(enc_key, iv, plaintext.ExposeForCrypto());

  Bytes out;
  Bytes ct_bytes = SerializeCiphertext(ct);
  AppendU32(out, static_cast<std::uint32_t>(ct_bytes.size()));
  Append(out, ct_bytes);
  Append(out, iv);
  Append(out, payload);
  Bytes mac_input = Concat(iv, payload);
  Append(out, crypto::HmacSha256ToBytes(mac_key, mac_input));
  return Secret(std::move(out));
}

Secret CpAbe::DecryptBytes(const PrivateKey& sk, ByteSpan blob) const {
  obs::ScopedTimer timer(*Metrics().decrypt_us);
  if (blob.size() < 4) throw Error("CpAbe::DecryptBytes: truncated");
  std::uint32_t ct_len = GetU32(blob);
  if (blob.size() < 4 + ct_len + kIvSize + kMacSize) {
    throw Error("CpAbe::DecryptBytes: truncated");
  }
  CiphertextView view =
      ParseCiphertext(pairing_->field(), blob.subspan(4, ct_len));
  ByteSpan iv = blob.subspan(4 + ct_len, kIvSize);
  ByteSpan payload = blob.subspan(4 + ct_len + kIvSize,
                                  blob.size() - 4 - ct_len - kIvSize - kMacSize);
  ByteSpan mac = blob.subspan(blob.size() - kMacSize);

  std::optional<Fp2> m =
      Decrypt(sk, view.policy, view.c_tilde, view.c, [&](std::size_t i) {
        return view.Leaf(pairing_->field(), i);
      });
  if (!m.has_value()) {
    throw Error("CpAbe::DecryptBytes: attributes do not satisfy policy");
  }
  Bytes m_bytes = m->ToBytes();
  ScopedWipe wipe_m(m_bytes);
  Bytes kek = crypto::Sha256::HashToBytes(m_bytes);
  ScopedWipe wipe_kek(kek);
  Bytes enc_key = crypto::DeriveKey32(kek, "reed/abe-enc");
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(kek, "reed/abe-mac");
  ScopedWipe wipe_mac(mac_key);

  Bytes mac_input = Concat(iv, payload);
  Bytes expect = crypto::HmacSha256ToBytes(mac_key, mac_input);
  if (!SecureCompare(expect, mac)) {
    throw Error("CpAbe::DecryptBytes: MAC verification failed");
  }
  return Secret(crypto::AesCtrEncrypt(enc_key, iv, payload));
}

// --------------------------- serialization ---------------------------

Bytes CpAbe::SerializeCiphertext(const Ciphertext& ct) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Bytes policy;
  ct.policy.SerializeTo(policy);
  AppendU32(out, static_cast<std::uint32_t>(policy.size()));
  Append(out, policy);
  Append(out, ct.c_tilde.ToBytes());
  Append(out, ct.c.ToBytes(f));
  AppendU32(out, static_cast<std::uint32_t>(ct.leaves.size()));
  for (const auto& leaf : ct.leaves) {
    Append(out, leaf.c.ToBytes(f));
    Append(out, leaf.c_prime.ToBytes(f));
  }
  return out;
}

Ciphertext CpAbe::DeserializeCiphertext(ByteSpan blob) const {
  const pairing::FpField* f = pairing_->field();
  CiphertextView view = ParseCiphertext(f, blob);
  Ciphertext ct;
  ct.policy = std::move(view.policy);
  ct.c_tilde = std::move(view.c_tilde);
  ct.c = std::move(view.c);
  ct.leaves.reserve(view.leaf_count);
  for (std::size_t i = 0; i < view.leaf_count; ++i) {
    ct.leaves.push_back(view.Leaf(f, i));
  }
  return ct;
}

Secret CpAbe::SerializePrivateKey(const PrivateKey& sk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Append(out, sk.d.ToBytes(f));
  AppendU32(out, static_cast<std::uint32_t>(sk.components.size()));
  for (const auto& [attr, comp] : sk.components) {
    AppendU32(out, static_cast<std::uint32_t>(attr.size()));
    Append(out, ToBytes(attr));
    Append(out, comp.d.ToBytes(f));
    Append(out, comp.d_prime.ToBytes(f));
  }
  return Secret(std::move(out));
}

PrivateKey CpAbe::DeserializePrivateKey(const Secret& secret_blob) const {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  const pairing::FpField* f = pairing_->field();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (off + n > blob.size()) throw Error("PrivateKey: truncated");
  };
  need(pt);
  PrivateKey sk;
  sk.d = G1Point::FromBytes(f, blob.subspan(off, pt));
  off += pt;
  need(4);
  std::uint32_t count = GetU32(blob.subspan(off));
  off += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    need(4);
    std::uint32_t len = GetU32(blob.subspan(off));
    off += 4;
    need(len);
    std::string attr(reinterpret_cast<const char*>(blob.data() + off), len);
    off += len;
    need(2 * pt);
    AttributeKey comp;
    comp.d = G1Point::FromBytes(f, blob.subspan(off, pt));
    comp.d_prime = G1Point::FromBytes(f, blob.subspan(off + pt, pt));
    off += 2 * pt;
    sk.components.emplace(std::move(attr), std::move(comp));
  }
  if (off != blob.size()) throw Error("PrivateKey: trailing bytes");
  PrepareKey(sk);
  return sk;
}

Bytes CpAbe::SerializePublicKey(const PublicKey& pk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Append(out, pk.g.ToBytes(f));
  Append(out, pk.h.ToBytes(f));
  Append(out, pk.e_gg_alpha.ToBytes());
  return out;
}

PublicKey CpAbe::DeserializePublicKey(ByteSpan blob) const {
  const pairing::FpField* f = pairing_->field();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t fp2 = 2 * f->element_bytes();
  if (blob.size() != 2 * pt + fp2) throw Error("PublicKey: bad length");
  PublicKey pk;
  pk.g = G1Point::FromBytes(f, blob.subspan(0, pt));
  pk.h = G1Point::FromBytes(f, blob.subspan(pt, pt));
  pk.e_gg_alpha = Fp2::FromBytes(f, blob.subspan(2 * pt));
  return pk;
}

Secret CpAbe::SerializeMasterKey(const MasterKey& mk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Bytes beta = mk.beta.ToBytes();
  ScopedWipe wipe_beta(beta);
  AppendU32(out, static_cast<std::uint32_t>(beta.size()));
  Append(out, beta);
  Append(out, mk.g_alpha.ToBytes(f));
  return Secret(std::move(out));
}

MasterKey CpAbe::DeserializeMasterKey(const Secret& secret_blob) const {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  const pairing::FpField* f = pairing_->field();
  if (blob.size() < 4) throw Error("MasterKey: truncated");
  std::uint32_t beta_len = GetU32(blob);
  std::size_t pt = G1Point::SerializedSize(f);
  if (blob.size() != 4 + beta_len + pt) throw Error("MasterKey: bad length");
  MasterKey mk;
  mk.beta = BigInt::FromBytes(blob.subspan(4, beta_len));
  mk.g_alpha = G1Point::FromBytes(f, blob.subspan(4 + beta_len));
  return mk;
}

}  // namespace reed::abe
