#include "store/recipe.h"

#include "store/store_error.h"

#include "crypto/sha256.h"

namespace reed::store {

Bytes FileRecipe::Serialize() const {
  if (fingerprints.size() != chunk_sizes.size()) {
    throw StoreError("FileRecipe: fingerprint/size count mismatch");
  }
  net::Writer w;
  w.Str(file_id);
  w.U64(file_size);
  w.U8(scheme);
  w.U32(stub_size);
  w.U32(static_cast<std::uint32_t>(fingerprints.size()));
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    w.Raw(fingerprints[i].AsSpan());
    w.U32(chunk_sizes[i]);
  }
  return w.Take();
}

FileRecipe FileRecipe::Deserialize(ByteSpan blob) {
  REED_FAULT_POINT("store.recipe.decode");
  net::Reader r(blob);
  FileRecipe recipe;
  recipe.file_id = r.Str();
  recipe.file_size = r.U64();
  recipe.scheme = r.U8();
  recipe.stub_size = r.U32();
  std::uint32_t count = r.U32();
  // Each entry is 36 bytes; reject impossible counts before reserving
  // (a forged count must not trigger a huge allocation).
  if (static_cast<std::uint64_t>(count) * 36 > r.remaining()) {
    throw StoreError("FileRecipe: chunk count exceeds payload");
  }
  recipe.fingerprints.reserve(count);
  recipe.chunk_sizes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    recipe.fingerprints.push_back(chunk::Fingerprint::FromBytes(r.RawView(32)));
    recipe.chunk_sizes.push_back(r.U32());
  }
  r.ExpectEnd();
  return recipe;
}

Bytes KeyStateRecord::Serialize() const {
  net::Writer w;
  w.Str(owner_id);
  w.U64(key_version);
  w.U64(stub_key_version);
  w.Blob(policy);
  w.Blob(wrapped_state);
  w.Str(group_wrap_id);
  w.Blob(derivation_public_key);
  return w.Take();
}

KeyStateRecord KeyStateRecord::Deserialize(ByteSpan blob) {
  net::Reader r(blob);
  KeyStateRecord rec;
  rec.owner_id = r.Str();
  rec.key_version = r.U64();
  rec.stub_key_version = r.U64();
  rec.policy = r.Blob();
  rec.wrapped_state = r.Blob();
  rec.group_wrap_id = r.Str();
  rec.derivation_public_key = r.Blob();
  r.ExpectEnd();
  return rec;
}

std::string ObfuscateFileId(std::string_view pathname, ByteSpan salt) {
  Bytes input = Concat(salt, ToBytes(pathname));
  return HexEncode(crypto::Sha256::HashToBytes(input));
}

}  // namespace reed::store
