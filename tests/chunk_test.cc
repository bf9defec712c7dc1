// Chunking substrate tests: Rabin rolling-hash algebra, boundary stability
// under edits (the property dedup depends on), fixed chunking, fingerprints.
#include <gtest/gtest.h>

#include "chunk/chunker.h"
#include "chunk/fingerprint.h"
#include "crypto/random.h"
#include "trace/trace.h"

namespace reed::chunk {
namespace {

using crypto::DeterministicRng;

TEST(FingerprintTest, DeterministicAndDistinct) {
  Bytes a = ToBytes("chunk content A");
  Bytes b = ToBytes("chunk content B");
  EXPECT_EQ(Fingerprint::Of(a), Fingerprint::Of(a));
  EXPECT_NE(Fingerprint::Of(a), Fingerprint::Of(b));
  EXPECT_EQ(Fingerprint::Of(a).ToHex().size(), 64u);
}

TEST(FingerprintTest, RoundTripAndShort48) {
  Fingerprint fp = Fingerprint::Of(ToBytes("data"));
  EXPECT_EQ(Fingerprint::FromBytes(fp.ToBytes()), fp);
  EXPECT_LT(fp.Short48(), std::uint64_t(1) << 48);
  EXPECT_THROW(Fingerprint::FromBytes(Bytes(31, 0)), Error);
}

TEST(RabinTest, PolyModReducesBelowDegree) {
  std::uint64_t poly = RabinTables::kDefaultPoly;  // degree 53
  DeterministicRng rng(1);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t v = rng.NextU64();
    std::uint64_t r = RabinTables::PolyMod(v, poly);
    EXPECT_LT(r, std::uint64_t(1) << 53);
    // mod is idempotent
    EXPECT_EQ(RabinTables::PolyMod(r, poly), r);
  }
  // Values already below the degree are unchanged.
  EXPECT_EQ(RabinTables::PolyMod(12345, poly), 12345u);
}

TEST(RabinTest, WindowFingerprintDependsOnlyOnWindowContents) {
  // After sliding past the window size, the fingerprint must equal the
  // fingerprint of just the last `window` bytes — the rolling property.
  RabinTables tables(16);
  DeterministicRng rng(2);
  Bytes data = rng.Generate(300);

  std::uint64_t rolled = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    rolled = tables.Push(rolled, data[i]);
    if (i >= 16) rolled = tables.Pop(rolled, data[i - 16]);
  }
  std::uint64_t fresh = 0;
  for (std::size_t i = data.size() - 16; i < data.size(); ++i) {
    fresh = tables.Push(fresh, data[i]);
  }
  EXPECT_EQ(rolled, fresh);
}

TEST(RabinTest, RejectsBadParameters) {
  EXPECT_THROW(RabinTables t(0), Error);
  EXPECT_THROW(RabinTables t(48, 0x3), Error);  // degree too small
}

TEST(FixedChunkerTest, SplitsExactlyAndCoversInput) {
  FixedSizeChunker chunker(100);
  DeterministicRng rng(3);
  Bytes data = rng.Generate(250);
  auto refs = chunker.Split(data);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].length, 100u);
  EXPECT_EQ(refs[2].length, 50u);
  std::size_t expected_offset = 0;
  for (const auto& r : refs) {
    EXPECT_EQ(r.offset, expected_offset);
    expected_offset += r.length;
  }
  EXPECT_EQ(expected_offset, data.size());
  EXPECT_TRUE(chunker.Split({}).empty());
  EXPECT_THROW(FixedSizeChunker bad(0), Error);
}

class RabinChunkerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RabinChunkerTest, RespectsBoundsAndCoversInput) {
  std::size_t avg = GetParam();
  RabinChunker chunker(PaperChunking(avg));
  DeterministicRng rng(4);
  Bytes data = rng.Generate(1 << 20);  // 1 MB
  auto refs = chunker.Split(data);
  ASSERT_GT(refs.size(), 1u);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].offset, offset);
    EXPECT_GT(refs[i].length, 0u);
    EXPECT_LE(refs[i].length, chunker.options().max_size);
    if (i + 1 < refs.size()) {
      EXPECT_GE(refs[i].length, chunker.options().min_size);
    }
    offset += refs[i].length;
  }
  EXPECT_EQ(offset, data.size());
  // Average should be in the right ballpark (within 4x either way).
  double actual_avg =
      static_cast<double>(data.size()) / static_cast<double>(refs.size());
  EXPECT_GT(actual_avg, static_cast<double>(avg) / 4.0);
  EXPECT_LT(actual_avg, static_cast<double>(avg) * 4.0);
}

INSTANTIATE_TEST_SUITE_P(AverageSizes, RabinChunkerTest,
                         ::testing::Values(2048, 4096, 8192, 16384));

TEST(RabinChunkerDedupTest, IdenticalDataGivesIdenticalChunks) {
  RabinChunker chunker(PaperChunking(8192));
  DeterministicRng rng(5);
  Bytes data = rng.Generate(256 * 1024);
  auto a = chunker.Split(data);
  auto b = chunker.Split(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

TEST(RabinChunkerDedupTest, SharedSuffixRealignsAfterEdit) {
  // Content-defined chunking: inserting bytes near the front must leave
  // most downstream chunk *contents* unchanged (they realign), which is
  // what lets the dedup layer keep storing only one copy.
  RabinChunker chunker(PaperChunking(4096));
  DeterministicRng rng(6);
  Bytes original = rng.Generate(512 * 1024);
  Bytes edited = original;
  Bytes insertion = rng.Generate(100);
  edited.insert(edited.begin() + 1000, insertion.begin(), insertion.end());

  auto FingerprintSet = [&](ByteSpan data) {
    std::vector<std::string> fps;
    for (const auto& r : chunker.Split(data)) {
      fps.push_back(Fingerprint::Of(data.subspan(r.offset, r.length)).ToHex());
    }
    return fps;
  };
  auto fa = FingerprintSet(original);
  auto fb = FingerprintSet(edited);
  std::size_t shared = 0;
  std::vector<std::string> sorted_a = fa, sorted_b = fb;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  std::vector<std::string> common;
  std::set_intersection(sorted_a.begin(), sorted_a.end(), sorted_b.begin(),
                        sorted_b.end(), std::back_inserter(common));
  shared = common.size();
  // The vast majority of chunks must survive the edit.
  EXPECT_GT(shared, fa.size() * 3 / 4);
}

TEST(RabinChunkerTest, InvalidOptionsThrow) {
  RabinChunker::Options opts;
  opts.average_size = 3000;  // not a power of two
  EXPECT_THROW(RabinChunker c(opts), Error);
  opts.average_size = 4096;
  opts.min_size = 0;
  EXPECT_THROW(RabinChunker c2(opts), Error);
  opts.min_size = 8192;
  opts.max_size = 4096;
  EXPECT_THROW(RabinChunker c3(opts), Error);
}

TEST(RabinChunkerTest, MaxSizeForcedOnIncompressiblePattern) {
  // Constant data never matches the boundary mask (the window fingerprint
  // is constant), so every chunk must be cut at max_size.
  RabinChunker chunker(PaperChunking(4096));
  Bytes data(200 * 1024, 0xAA);
  auto refs = chunker.Split(data);
  for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
    EXPECT_EQ(refs[i].length, chunker.options().max_size);
  }
}

// --- Differential oracle: the chunker as it was before Cut ----------------
//
// The old per-byte RabinWindow (ring buffer, `% window_size`, fill counter)
// fed from each chunk's first byte and reset at every boundary, exactly as
// RabinChunker::Split used to run. Kept verbatim (own tables, old reduction
// formula) so that no code it checks is shared with the chunker under test.
class OracleWindow {
 public:
  explicit OracleWindow(std::size_t window_size)
      : window_size_(window_size), window_(window_size, 0) {
    std::uint64_t poly = RabinTables::kDefaultPoly;
    degree_ = 63;
    while (!(poly >> degree_)) --degree_;
    for (int b = 0; b < 256; ++b) {
      append_table_[b] =
          RabinTables::PolyMod(static_cast<std::uint64_t>(b) << degree_, poly);
    }
    std::uint64_t x8w = 1;
    for (std::size_t i = 0; i < window_size_; ++i) {
      x8w = RabinTables::PolyMod(x8w << 8, poly);
    }
    for (int b = 0; b < 256; ++b) {
      std::uint64_t acc = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (b & (1 << bit)) acc ^= x8w << bit;
      }
      remove_table_[b] = RabinTables::PolyMod(acc, poly);
    }
  }

  void Reset() {
    fp_ = 0;
    pos_ = 0;
    filled_ = 0;
    std::fill(window_.begin(), window_.end(), 0);
  }

  std::uint64_t Slide(std::uint8_t in) {
    std::uint8_t out = 0;
    bool full = filled_ == window_size_;
    if (full) out = window_[pos_];
    std::uint64_t shifted = (fp_ << 8) | in;
    fp_ = (shifted & ((std::uint64_t(1) << degree_) - 1)) ^
          append_table_[shifted >> degree_];
    if (full) fp_ ^= remove_table_[out];
    window_[pos_] = in;
    pos_ = (pos_ + 1) % window_size_;
    if (!full) ++filled_;
    return fp_;
  }

 private:
  std::size_t window_size_;
  int degree_;
  std::uint64_t fp_ = 0;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::vector<std::uint8_t> window_;
  std::array<std::uint64_t, 256> append_table_;
  std::array<std::uint64_t, 256> remove_table_;
};

std::vector<ChunkRef> OracleSplit(const RabinChunker::Options& o,
                                  ByteSpan data) {
  std::vector<ChunkRef> out;
  const std::uint64_t mask = o.average_size - 1;
  OracleWindow window(o.window_size);
  std::size_t start = 0;
  std::size_t len = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint64_t fp = window.Slide(data[i]);
    ++len;
    if ((len >= o.min_size && (fp & mask) == mask) || len == o.max_size) {
      out.push_back({start, len});
      start = i + 1;
      len = 0;
      window.Reset();
    }
  }
  if (len > 0) out.push_back({start, len});
  return out;
}

void ExpectSameCuts(const RabinChunker::Options& o, ByteSpan data) {
  std::vector<ChunkRef> want = OracleSplit(o, data);
  std::vector<ChunkRef> got = RabinChunker(o).Split(data);
  ASSERT_EQ(got.size(), want.size())
      << "min " << o.min_size << " max " << o.max_size << " avg "
      << o.average_size << " size " << data.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].offset, want[i].offset) << "chunk " << i;
    ASSERT_EQ(got[i].length, want[i].length) << "chunk " << i;
  }
}

TEST(RabinDifferentialTest, PushPopMatchesOracleSlide) {
  DeterministicRng rng(40);
  Bytes data = rng.Generate(4096);
  for (std::size_t w : {std::size_t{1}, std::size_t{8}, std::size_t{48}}) {
    RabinTables tables(w);
    OracleWindow oracle(w);
    std::uint64_t fp = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      fp = tables.Push(fp, data[i]);
      if (i >= w) fp = tables.Pop(fp, data[i - w]);
      ASSERT_EQ(fp, oracle.Slide(data[i])) << "w=" << w << " i=" << i;
    }
  }
}

TEST(RabinDifferentialTest, RandomDataAtEveryAverage) {
  // At 64 the paper parameterization sets min_size to 32, below the 48-byte
  // window, so the window-fill loop itself must find boundaries.
  for (std::size_t avg : {64, 256, 2048, 4096, 8192, 16384}) {
    SCOPED_TRACE("avg=" + std::to_string(avg));
    DeterministicRng rng(41 + avg);
    ExpectSameCuts(PaperChunking(avg), rng.Generate(1 << 20));
  }
}

TEST(RabinDifferentialTest, InputsAroundMinAndMaxSize) {
  DeterministicRng rng(42);
  Bytes pool = rng.Generate(64 * 1024);
  for (std::size_t avg : {64, 256, 8192}) {
    const RabinChunker::Options o = PaperChunking(avg);
    for (std::size_t size :
         {std::size_t{1}, o.min_size - 1, o.min_size, o.min_size + 1,
          o.max_size - 1, o.max_size, o.max_size + 1, 2 * o.max_size}) {
      SCOPED_TRACE("avg=" + std::to_string(avg) +
                   " size=" + std::to_string(size));
      ExpectSameCuts(o, ByteSpan(pool).first(size));
    }
  }
}

TEST(RabinDifferentialTest, OddParameterizations) {
  // max below the window, min equal to max, min equal to the window.
  DeterministicRng rng(43);
  Bytes data = rng.Generate(256 * 1024);
  RabinChunker::Options tiny{.min_size = 16, .max_size = 40,
                             .average_size = 16};
  RabinChunker::Options fixed{.min_size = 1000, .max_size = 1000,
                              .average_size = 256};
  RabinChunker::Options at_window{.min_size = 48, .max_size = 4096,
                                  .average_size = 512};
  RabinChunker::Options short_window{.min_size = 300, .max_size = 9000,
                                     .average_size = 1024, .window_size = 7};
  for (const auto& o : {tiny, fixed, at_window, short_window}) {
    ExpectSameCuts(o, data);
  }
}

TEST(RabinDifferentialTest, AllZeroDataCutsAtMaxSize) {
  Bytes zeros(300 * 1024, 0);
  for (std::size_t avg : {64, 8192}) {
    const RabinChunker::Options o = PaperChunking(avg);
    ExpectSameCuts(o, zeros);
    auto refs = RabinChunker(o).Split(zeros);
    for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
      EXPECT_EQ(refs[i].length, o.max_size);
    }
  }
}

TEST(RabinDifferentialTest, TraceSnapshotsAndChurnedCopy) {
  trace::TraceOptions topts;
  topts.num_users = 2;
  topts.num_days = 2;
  topts.user_snapshot_bytes = 1 << 20;
  topts.seed = 44;
  trace::TraceGenerator gen(topts);
  for (std::size_t user = 0; user < 2; ++user) {
    Bytes data = trace::MaterializeSnapshot(gen.GetSnapshot(user, 0)).data;
    for (std::size_t avg : {256, 8192}) ExpectSameCuts(PaperChunking(avg), data);

    // Churn: scattered overwrites plus an insert and an equal-sized delete,
    // so boundaries shift and realign.
    DeterministicRng rng(45 + user);
    for (int k = 0; k < 16; ++k) {
      std::size_t at = rng.NextU64() % (data.size() - 8192);
      Bytes patch = rng.Generate(8192);
      std::copy(patch.begin(), patch.end(), data.begin() + at);
    }
    Bytes insert = rng.Generate(777);
    data.insert(data.begin() + 5000, insert.begin(), insert.end());
    data.erase(data.end() - 20000, data.end() - 20000 + 777);
    for (std::size_t avg : {256, 8192}) ExpectSameCuts(PaperChunking(avg), data);
  }
}

// --- Lane edges: the block scan against the same oracle ------------------
//
// Once min_size > window_size, Cut scans blocks of four lanes of 512
// positions from min_size - 1 on and rolls serially over the remainder.

constexpr std::size_t kLaneBlock = 4 * 512;

enum class Fill { kRandom, kFourSymbols, kMostlyZero };

// Four-symbol and mostly-zero data repeat windows, so small averages match
// in several lanes of one block and the earliest match has to win.
Bytes Filled(DeterministicRng& rng, Fill fill, std::size_t n) {
  Bytes data = rng.Generate(n);
  for (std::uint8_t& b : data) {
    if (fill == Fill::kFourSymbols) b = static_cast<std::uint8_t>(b & 3);
    if (fill == Fill::kMostlyZero && b >= 4) b = 0;
  }
  return data;
}

// One random parameterization; min_size falls below, at or above the window
// and at block multiples +-1, and max_size leaves a remainder that is not a
// whole block (or exactly one block +-1) after min_size - 1.
RabinChunker::Options RandomLaneOptions(DeterministicRng& rng) {
  RabinChunker::Options o;
  o.window_size = 1 + rng.Uniform(80);
  const std::size_t w = o.window_size;
  switch (rng.Uniform(6)) {
    case 0: o.min_size = 1 + rng.Uniform(w); break;  // <= window
    case 1: o.min_size = w + 1; break;
    case 2: o.min_size = w + 2 + rng.Uniform(300); break;
    default:
      o.min_size = (1 + rng.Uniform(2)) * kLaneBlock - 1 + rng.Uniform(3);
      break;
  }
  const std::size_t scan = o.min_size - 1;
  switch (rng.Uniform(4)) {
    case 0:
      o.max_size = scan + (1 + rng.Uniform(3)) * kLaneBlock - 1 +
                   rng.Uniform(3);
      break;
    case 1: o.max_size = o.min_size + rng.Uniform(kLaneBlock); break;
    default: o.max_size = o.min_size + rng.Uniform(4 * kLaneBlock); break;
  }
  if (o.max_size % kLaneBlock == 0) ++o.max_size;
  o.average_size = std::size_t{1} << (1 + rng.Uniform(12));
  return o;
}

TEST(RabinLaneTest, RandomParameterizationsMatchOracle) {
  DeterministicRng rng(47);
  std::size_t lane_params = 0;
  for (int t = 0; t < 240; ++t) {
    const RabinChunker::Options o = RandomLaneOptions(rng);
    if (o.min_size > o.window_size) ++lane_params;
    for (Fill fill : {Fill::kRandom, Fill::kFourSymbols, Fill::kMostlyZero}) {
      SCOPED_TRACE("t=" + std::to_string(t) + " w=" +
                   std::to_string(o.window_size) + " fill=" +
                   std::to_string(static_cast<int>(fill)));
      ExpectSameCuts(o, Filled(rng, fill, 1 + rng.Uniform(48 * 1024)));
    }
  }
  EXPECT_GE(lane_params, 150u);
}

TEST(RabinLaneTest, InputsEndingAtEveryOffsetOfTheLastBlock) {
  // Lengths from one block past min_size - 1 to three blocks past it, so
  // the input ends at every offset of a first and of a second block, and
  // the remainder after the blocks takes every size from 0 to a block.
  DeterministicRng rng(48);
  for (Fill fill : {Fill::kRandom, Fill::kFourSymbols}) {
    RabinChunker::Options o{.min_size = 100, .max_size = 1 << 20,
                            .average_size = 4096};
    const RabinChunker chunker(o);
    const Bytes data =
        Filled(rng, fill, o.min_size - 1 + 3 * kLaneBlock + 2);
    for (std::size_t n = o.min_size - 2 + kLaneBlock; n <= data.size(); ++n) {
      const ByteSpan input = ByteSpan(data).first(n);
      ASSERT_EQ(chunker.Cut(input), OracleSplit(o, input).front().length)
          << "n=" << n << " fill=" << static_cast<int>(fill);
    }
  }
  // At average 2 the mask is the low bit: a zero window never matches and a
  // window ending in byte 1 always does. A lone 1 at offset n is then the
  // first match of a longer input, and the first n bytes hold none.
  RabinChunker::Options o{.min_size = 100, .max_size = 1 << 20,
                          .average_size = 2};
  const RabinChunker chunker(o);
  Bytes data(o.min_size - 1 + 3 * kLaneBlock + 2, 0);
  for (std::size_t n = o.min_size - 1; n + 1 < data.size(); ++n) {
    data[n] = 1;
    ASSERT_EQ(chunker.Cut(data), n + 1) << "n=" << n;
    ASSERT_EQ(chunker.Cut(ByteSpan(data).first(n)), n) << "n=" << n;
    data[n] = 0;
  }
}

TEST(RabinChunkerTest, CutIsTheFirstChunkOfSplit) {
  RabinChunker chunker(PaperChunking(4096));
  DeterministicRng rng(46);
  Bytes data = rng.Generate(128 * 1024);
  auto refs = chunker.Split(data);
  ASSERT_GT(refs.size(), 2u);
  for (const auto& r : refs) {
    EXPECT_EQ(chunker.Cut(ByteSpan(data).subspan(r.offset)), r.length);
  }
  EXPECT_EQ(chunker.Cut({}), 0u);
}

}  // namespace
}  // namespace reed::chunk
