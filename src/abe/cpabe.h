// Ciphertext-policy attribute-based encryption (BSW07), from scratch over
// our Type-A pairing — the primitive REED uses to wrap per-file key states
// so that exactly the authorized users can recover the file key (§IV-C).
//
// Scheme (Bethencourt–Sahai–Waters, IEEE S&P 2007):
//   Setup:    α, β ← Z_r.  PK = (g, h=g^β, e(g,g)^α),  MK = (β, g^α)
//   KeyGen(S): t ← Z_r.  D = g^{(α+t)/β};  per attribute j ∈ S:
//              t_j ← Z_r, D_j = g^t · H(j)^{t_j},  D'_j = g^{t_j}
//   Encrypt(M ∈ GT, T): secret s shared down the access tree T with
//              per-node polynomials; C̃ = M·e(g,g)^{αs}, C = h^s, and per
//              leaf y: C_y = g^{λ_y}, C'_y = H(att(y))^{λ_y}
//   Decrypt:  pair leaf components, recombine shares in the exponent with
//              Lagrange coefficients, divide out e(C, D).
//
// Decryption runs over a prepared key (DESIGN.md §17): the Miller lines of
// D, D_j and −D'_j are recorded when the key is made, and a decrypt pairs
// them with the ciphertext points it needs in one shared Miller loop.
//
// EncryptBytes/DecryptBytes add the standard hybrid layer: a random GT
// element is ABE-encrypted and hashed into an AES-256-CTR + HMAC key pair
// protecting the payload.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "abe/policy.h"
#include "crypto/random.h"
#include "pairing/pairing.h"
#include "util/secret.h"
#include "util/thread_annotations.h"

namespace reed::abe {

using bigint::BigInt;
using pairing::Fp2;
using pairing::G1Point;
using pairing::TypeAPairing;

struct PublicKey {
  G1Point g;        // group generator
  G1Point h;        // g^β
  Fp2 e_gg_alpha;   // e(g,g)^α
};

struct MasterKey {
  BigInt beta;
  G1Point g_alpha;  // g^α
};

// Handle to the Miller lines of one key point. It remembers the point it
// was recorded from: decrypt uses it only while that still equals the
// key's point, and prepares the point afresh otherwise.
using KeyLines = std::shared_ptr<const pairing::MillerLines>;

// The key points D, D_j and D'_j are secret. Both key types wipe them when
// destroyed, as MillerLines wipes its lines, so no copy leaves them in
// freed memory; an assignment overwrites every byte of the target's points.
// AttributeKey stays an aggregate: it is copied where it would be moved,
// which costs two reference counts.
struct AttributeKey {
  ~AttributeKey();

  G1Point d;        // D_j  = g^t · H(j)^{t_j}
  G1Point d_prime;  // D'_j = g^{t_j}
  KeyLines d_lines;            // lines of D_j
  KeyLines neg_d_prime_lines;  // lines of −D'_j
};

struct PrivateKey {
  PrivateKey() = default;
  PrivateKey(const PrivateKey&) = default;
  PrivateKey(PrivateKey&&) noexcept = default;
  PrivateKey& operator=(const PrivateKey&) = default;
  PrivateKey& operator=(PrivateKey&&) noexcept = default;
  ~PrivateKey();

  G1Point d;  // g^{(α+t)/β}
  std::map<std::string, AttributeKey> components;
  KeyLines d_lines;  // lines of D

  [[nodiscard]] std::vector<std::string> Attributes() const;
};

struct CiphertextLeaf {
  G1Point c;        // g^{λ_y}
  G1Point c_prime;  // H(att(y))^{λ_y}
};

struct Ciphertext {
  PolicyNode policy;
  Fp2 c_tilde;  // M · e(g,g)^{αs}
  G1Point c;    // h^s
  // One entry per policy leaf, in DFS order.
  std::vector<CiphertextLeaf> leaves;
};

class CpAbe {
 public:
  explicit CpAbe(std::shared_ptr<const TypeAPairing> pairing);
  ~CpAbe();
  CpAbe(const CpAbe&) = delete;
  CpAbe& operator=(const CpAbe&) = delete;

  // Memory for fixed-base tables (g, h and each attribute point), ~41 KiB
  // each: room for ~800 bases. Tables are admitted until it is full and
  // never evicted; a base without one multiplies with ScalarMul.
  static constexpr std::size_t kTableBudgetBytes = std::size_t{32} << 20;

  const TypeAPairing& pairing() const { return *pairing_; }

  struct SetupResult {
    PublicKey pk;
    MasterKey mk;
  };
  [[nodiscard]] SetupResult Setup(crypto::Rng& rng) const;

  // The key comes prepared: ~0.5 ms per point, 1 + 2·|attributes| points.
  [[nodiscard]] PrivateKey KeyGen(const PublicKey& pk, const MasterKey& mk,
                    const std::vector<std::string>& attributes,
                    crypto::Rng& rng) const;

  // Core scheme over GT elements.
  [[nodiscard]] Ciphertext EncryptElement(const PublicKey& pk, const Fp2& message,
                            const PolicyNode& policy, crypto::Rng& rng) const;
  // nullopt when the key's attributes do not satisfy the policy.
  [[nodiscard]] std::optional<Fp2> DecryptElement(const PrivateKey& sk,
                                    const Ciphertext& ct) const;

  // Hybrid encryption of arbitrary byte strings (ABE + AES-CTR + HMAC).
  // The plaintext is secret by definition (REED wraps key states here); the
  // ciphertext is returned still tainted — declaring it public happens at
  // the client's sanctioned Declassify crossing, not implicitly here.
  [[nodiscard]] Secret EncryptBytes(const PublicKey& pk, const PolicyNode& policy,
                     const Secret& plaintext, crypto::Rng& rng) const;
  // Throws Error on unauthorized key or tampered ciphertext. The blob's
  // whole structure is checked, but only C̃, C and the leaves the key pairs
  // are decoded: an unpaired leaf point is never validated (DESIGN.md §17).
  [[nodiscard]] Secret DecryptBytes(const PrivateKey& sk, ByteSpan blob) const;

  // Serialization (ciphertexts are stored in the cloud key store).
  [[nodiscard]] Bytes SerializeCiphertext(const Ciphertext& ct) const;
  [[nodiscard]] Ciphertext DeserializeCiphertext(ByteSpan blob) const;
  // User private keys and the master key are secret material: their blobs
  // are Secret-typed, so persisting one takes a visible Declassify.
  [[nodiscard]] Secret SerializePrivateKey(const PrivateKey& sk) const;
  [[nodiscard]] PrivateKey DeserializePrivateKey(const Secret& blob) const;
  [[nodiscard]] Bytes SerializePublicKey(const PublicKey& pk) const;
  [[nodiscard]] PublicKey DeserializePublicKey(ByteSpan blob) const;
  // Master-key serialization for the attribute authority's state file
  // (reedctl init-org).
  [[nodiscard]] Secret SerializeMasterKey(const MasterKey& mk) const;
  [[nodiscard]] MasterKey DeserializeMasterKey(const Secret& blob) const;

 private:
  // A recurring G1 base with its fixed-base table, if the budget admitted
  // one.
  struct Base {
    G1Point point;
    std::shared_ptr<const pairing::G1FixedBase> table;
  };
  // H(attribute) with a per-instance memo: attribute points recur across
  // keygen/encrypt calls (every rekey re-encrypts under user attributes).
  Base AttributeBase(const std::string& attribute) const;
  // g or h of a public key, memoised the same way.
  Base KeyBase(const G1Point& point) const;
  // `point` with a table built outside the lock, if the budget has room.
  Base MakeBase(const G1Point& point) const REED_EXCLUDES(memo_mu_);
  // Charges a new memo entry's table to the budget, or drops the table if
  // other entries filled the budget while it was being built.
  void Admit(Base& entry) const REED_REQUIRES(memo_mu_);
  // k·base through its table, or ScalarMul when it has none.
  pairing::G1Jacobian Mul(const Base& base, const BigInt& k) const;
  // e(g, g) for the public key's generator, memoised: every EncryptBytes
  // draws its random G_T element as a power of it.
  Fp2 GeneratorPairing(const G1Point& g) const;

  // A leaf's attribute and its share λ_y of the secret, in DFS order.
  struct LeafShare {
    const std::string* attribute;
    BigInt share;
  };
  void ShareSecret(const PolicyNode& node, const BigInt& value,
                   crypto::Rng& rng, std::vector<LeafShare>& leaf_shares) const;

  // Records the lines of every point of `sk`.
  void PrepareKey(PrivateKey& sk) const;
  KeyLines PreparePoint(const G1Point& point) const;
  // `lines` if they were recorded from `point`, else a fresh preparation.
  KeyLines LinesFor(const KeyLines& lines, const G1Point& point) const;

  // A leaf the decrypt pairs: its DFS index, the key's component for its
  // attribute, and the product of the Lagrange coefficients on its path.
  struct PairedLeaf {
    std::size_t index;
    const AttributeKey* key;
    BigInt exponent;
  };
  // Picks, in every satisfied gate, the first `threshold` satisfied
  // children; leaf_index counts every leaf passed, chosen or not.
  void ChooseLeaves(const PolicyNode& node, const PrivateKey& sk,
                    const BigInt& exponent,
                    std::size_t& leaf_index,
                    std::vector<PairedLeaf>& out) const;
  // M = C̃ · A / e(C, D) with the leaves' points drawn from `leaf_at` by
  // DFS index; nullopt when the key does not satisfy the policy.
  std::optional<Fp2> Decrypt(
      const PrivateKey& sk, const PolicyNode& policy, const Fp2& c_tilde,
      const G1Point& c,
      const std::function<CiphertextLeaf(std::size_t)>& leaf_at) const;

  std::shared_ptr<const TypeAPairing> pairing_;
  mutable Mutex memo_mu_{LockRank::kAbeAttrCache};
  mutable std::map<std::string, Base> attr_cache_ REED_GUARDED_BY(memo_mu_);
  // One entry per distinct g or h seen: two per public key in use.
  mutable std::vector<Base> key_bases_ REED_GUARDED_BY(memo_mu_);
  mutable std::size_t table_bytes_ REED_GUARDED_BY(memo_mu_) = 0;
  mutable std::optional<std::pair<G1Point, Fp2>> e_gg_cache_
      REED_GUARDED_BY(memo_mu_);
};

}  // namespace reed::abe
