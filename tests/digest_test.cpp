// Digest algorithms verified against their specifications: MD5 against the
// RFC 1321 appendix test suite, SHA-1 against RFC 3174 / FIPS 180 vectors,
// FNV-1a against published reference values, plus incremental-update and
// boundary-condition behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "digest/digest.hpp"
#include "digest/digest_map.hpp"
#include "digest/fnv.hpp"
#include "digest/hasher.hpp"
#include "digest/md5.hpp"
#include "digest/sha1.hpp"
#include "digest/sha256.hpp"

namespace vecycle {
namespace {

std::string Md5Hex(const std::string& input) {
  return Md5Digest(input.data(), input.size()).ToHex();
}

// --- MD5: the complete RFC 1321 appendix A.5 test suite. ---

TEST(Md5, Rfc1321EmptyString) {
  EXPECT_EQ(Md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(Md5, Rfc1321SingleChar) {
  EXPECT_EQ(Md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
}

TEST(Md5, Rfc1321Abc) {
  EXPECT_EQ(Md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, Rfc1321MessageDigest) {
  EXPECT_EQ(Md5Hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, Rfc1321Alphabet) {
  EXPECT_EQ(Md5Hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, Rfc1321AlphaNumeric) {
  EXPECT_EQ(
      Md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, Rfc1321Digits) {
  EXPECT_EQ(Md5Hex("1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

// --- MD5: implementation mechanics. ---

TEST(Md5, IncrementalUpdateMatchesOneShot) {
  const std::string input =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "several 64-byte block boundaries in this message.";
  Md5 incremental;
  // Feed in awkward chunk sizes to exercise buffer-fill paths.
  std::size_t offset = 0;
  const std::size_t chunks[] = {1, 3, 7, 13, 31, 64, 100};
  std::size_t chunk_index = 0;
  while (offset < input.size()) {
    const std::size_t len =
        std::min(chunks[chunk_index++ % 7], input.size() - offset);
    incremental.Update(input.data() + offset, len);
    offset += len;
  }
  EXPECT_EQ(incremental.Finalize(), Md5Digest(input.data(), input.size()));
}

TEST(Md5, ExactBlockBoundaryInputs) {
  // 55/56/57 bytes straddle the padding cutover; 64/65 straddle a block.
  for (const std::size_t size : {55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    const std::string input(size, 'x');
    Md5 a;
    a.Update(input.data(), input.size());
    EXPECT_EQ(a.Finalize(), Md5Digest(input.data(), input.size()))
        << "size=" << size;
  }
}

TEST(Md5, FinalizeTwiceThrows) {
  Md5 md5;
  md5.Update("x", 1);
  (void)md5.Finalize();
  EXPECT_THROW((void)md5.Finalize(), CheckFailure);
}

TEST(Md5, UpdateAfterFinalizeThrows) {
  Md5 md5;
  (void)md5.Finalize();
  EXPECT_THROW(md5.Update("x", 1), CheckFailure);
}

TEST(Md5, DistinctInputsDistinctDigests) {
  EXPECT_NE(Md5Hex("hello"), Md5Hex("hellp"));
  EXPECT_NE(Md5Hex("hello"), Md5Hex("hello "));
}

// --- SHA-1: RFC 3174 / FIPS 180-1 vectors (full 160-bit state). ---

std::string Sha1FullHex(const std::string& input) {
  Sha1 sha;
  sha.Update(input.data(), input.size());
  const auto words = sha.FinalizeFull();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%08x%08x%08x%08x%08x", words[0], words[1],
                words[2], words[3], words[4]);
  return buf;
}

TEST(Sha1, FipsAbc) {
  EXPECT_EQ(Sha1FullHex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, FipsTwoBlockMessage) {
  EXPECT_EQ(
      Sha1FullHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1FullHex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 sha;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.Update(chunk.data(), chunk.size());
  const auto words = sha.FinalizeFull();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%08x%08x%08x%08x%08x", words[0], words[1],
                words[2], words[3], words[4]);
  EXPECT_STREQ(buf, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, TruncatedDigestMatchesLeading128Bits) {
  const std::string input = "abc";
  const Digest128 truncated = Sha1Digest(input.data(), input.size());
  EXPECT_EQ(truncated.ToHex(), "a9993e364706816aba3e25717850c26c");
}

// --- SHA-256: FIPS 180-4 / NIST vectors. ---

std::string Sha256FullHex(const std::string& input) {
  Sha256 sha;
  sha.Update(input.data(), input.size());
  const auto words = sha.FinalizeFull();
  std::string out;
  char buf[16];
  for (const auto w : words) {
    std::snprintf(buf, sizeof(buf), "%08x", w);
    out += buf;
  }
  return out;
}

TEST(Sha256, NistAbc) {
  EXPECT_EQ(Sha256FullHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, NistEmptyString) {
  EXPECT_EQ(Sha256FullHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, NistTwoBlockMessage) {
  EXPECT_EQ(Sha256FullHex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 sha;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.Update(chunk.data(), chunk.size());
  const auto words = sha.FinalizeFull();
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%08x%08x%08x%08x%08x%08x%08x%08x",
                words[0], words[1], words[2], words[3], words[4], words[5],
                words[6], words[7]);
  EXPECT_STREQ(
      buf, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, TruncatedDigestMatchesLeading128Bits) {
  const std::string input = "abc";
  const Digest128 truncated = Sha256Digest(input.data(), input.size());
  EXPECT_EQ(truncated.ToHex(), "ba7816bf8f01cfea414140de5dae2223");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string input(173, 'z');
  Sha256 sha;
  sha.Update(input.data(), 100);
  sha.Update(input.data() + 100, 73);
  EXPECT_EQ(sha.Finalize(), Sha256Digest(input.data(), input.size()));
}

// --- FNV-1a: published reference values. ---

TEST(Fnv, ReferenceValues) {
  // Offset basis: hash of the empty string.
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const char a = 'a';
  EXPECT_EQ(Fnv1a64(reinterpret_cast<const std::uint8_t*>(&a), 1),
            0xaf63dc4c8601ec8cull);
  const std::string foobar = "foobar";
  EXPECT_EQ(Fnv1a64(reinterpret_cast<const std::uint8_t*>(foobar.data()),
                    foobar.size()),
            0x85944171f73967e8ull);
}

TEST(Fnv, DigestWidening) {
  const std::string input = "foobar";
  const Digest128 d = FnvDigest(input.data(), input.size());
  EXPECT_EQ(d.words[0], 0x85944171f73967e8ull);
  EXPECT_EQ(d.words[1], 0u);
}

// --- Digest128 value-type behaviour. ---

TEST(Digest128, OrderingIsLexicographicOnWords) {
  const auto a = Digest128::FromWords(1, 0);
  const auto b = Digest128::FromWords(1, 1);
  const auto c = Digest128::FromWords(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, Digest128::FromWords(1, 0));
}

TEST(Digest128, HexRendering) {
  const auto d = Digest128::FromWords(0x0123456789abcdefull, 0xfedcba9876543210ull);
  EXPECT_EQ(d.ToHex(), "0123456789abcdeffedcba9876543210");
}

TEST(Digest128, StdHashSpreadsValues) {
  const auto a = std::hash<Digest128>{}(Digest128::FromWords(1, 2));
  const auto b = std::hash<Digest128>{}(Digest128::FromWords(2, 1));
  EXPECT_NE(a, b);
}

// --- Algorithm dispatch. ---

TEST(Hasher, DispatchMatchesDirectCalls) {
  const std::string input = "dispatch me";
  EXPECT_EQ(ComputeDigest(DigestAlgorithm::kMd5, input.data(), input.size()),
            Md5Digest(input.data(), input.size()));
  EXPECT_EQ(ComputeDigest(DigestAlgorithm::kSha1, input.data(), input.size()),
            Sha1Digest(input.data(), input.size()));
  EXPECT_EQ(
      ComputeDigest(DigestAlgorithm::kSha256, input.data(), input.size()),
      Sha256Digest(input.data(), input.size()));
  EXPECT_EQ(ComputeDigest(DigestAlgorithm::kFnv1a, input.data(), input.size()),
            FnvDigest(input.data(), input.size()));
}

TEST(Hasher, WireSizes) {
  EXPECT_EQ(WireSizeBytes(DigestAlgorithm::kMd5), 16u);
  EXPECT_EQ(WireSizeBytes(DigestAlgorithm::kSha1), 16u);
  EXPECT_EQ(WireSizeBytes(DigestAlgorithm::kSha256), 16u);
  EXPECT_EQ(WireSizeBytes(DigestAlgorithm::kFnv1a), 8u);
}

TEST(Hasher, AlgorithmNames) {
  EXPECT_STREQ(ToString(DigestAlgorithm::kMd5), "md5");
  EXPECT_STREQ(ToString(DigestAlgorithm::kSha1), "sha1");
  EXPECT_STREQ(ToString(DigestAlgorithm::kSha256), "sha256");
  EXPECT_STREQ(ToString(DigestAlgorithm::kFnv1a), "fnv1a");
}

TEST(Hasher, UnenumeratedAlgorithmFailsLoudly) {
  // A zero digest for an unknown algorithm (the old fallback) would make
  // every page "match" every other; this must be a hard failure instead.
  const auto bogus = static_cast<DigestAlgorithm>(42);
  const std::string input = "x";
  EXPECT_THROW(ComputeDigest(bogus, input.data(), input.size()),
               CheckFailure);
  EXPECT_THROW(ToString(bogus), CheckFailure);
}

// --- Padding-boundary inputs across all algorithms. ---
//
// Both MD5 and SHA pad to a 64-byte block with an 8-byte (MD5/SHA-1/
// SHA-256) length trailer, so 55/56 straddle the one-vs-two-block padding
// decision and 63/64/65 straddle the block boundary itself. Reference
// digests computed with Python hashlib (SHA digests truncated to their
// leading 128 bits, matching Digest128).

struct BoundaryVector {
  std::size_t length;
  const char* md5;
  const char* sha1;
  const char* sha256;
};

constexpr BoundaryVector kBoundaryVectors[] = {
    {0, "d41d8cd98f00b204e9800998ecf8427e",
     "da39a3ee5e6b4b0d3255bfef95601890",
     "e3b0c44298fc1c149afbf4c8996fb924"},
    {55, "04364420e25c512fd958a70738aa8f72",
     "cef734ba81a024479e09eb5a75b6ddae",
     "d5e285683cd4efc02d021a5c62014694"},
    {56, "668a72d5ba17f08e62dabcafad6db14b",
     "901305367c259952f4e7af8323f480d5",
     "04c26261370ee7541549d16dee320c72"},
    {63, "7dc2ca208106a2f703567bdff99d8981",
     "0ddc4e0cccd9a12850deb5abb0853a44",
     "75220b47218278e656f2013bb8f0c455"},
    {64, "c1bb4f81d892b2d57947682aeb252456",
     "bb2fa3ee7afb9f54c6dfb5d021f14b1f",
     "7ce100971f64e7001e8fe5a51973ecdf"},
    {65, "1bc932052302d074bdec39795fe00cf6",
     "78c741ddc482e4cdf8c474a0876347a0",
     "9537c5fdf120482f7d58d25e9ed583f5"},
};

TEST(PaddingBoundaries, AllAlgorithmsMatchReferenceDigests) {
  for (const auto& v : kBoundaryVectors) {
    const std::string input(v.length, 'x');
    EXPECT_EQ(
        ComputeDigest(DigestAlgorithm::kMd5, input.data(), input.size())
            .ToHex(),
        v.md5)
        << "md5 length " << v.length;
    EXPECT_EQ(
        ComputeDigest(DigestAlgorithm::kSha1, input.data(), input.size())
            .ToHex(),
        v.sha1)
        << "sha1 length " << v.length;
    EXPECT_EQ(
        ComputeDigest(DigestAlgorithm::kSha256, input.data(), input.size())
            .ToHex(),
        v.sha256)
        << "sha256 length " << v.length;
  }
}

TEST(PaddingBoundaries, IncrementalSplitsAgreeAtEveryBoundary) {
  // The same inputs fed through Update() in two pieces at every split
  // point must reproduce the one-shot digest.
  const std::string input(65, 'x');
  for (std::size_t split : {0u, 1u, 55u, 56u, 63u, 64u, 65u}) {
    Md5 md5;
    md5.Update(input.data(), split);
    md5.Update(input.data() + split, input.size() - split);
    EXPECT_EQ(md5.Finalize().ToHex(), kBoundaryVectors[5].md5)
        << "split " << split;
  }
}

// --- DigestMap: flat O(1) membership vs the sorted-vector baseline. ---

std::vector<Digest128> RandomCorpus(std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Digest128> corpus;
  corpus.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    corpus.push_back(Digest128::FromWords(rng.Next(), rng.Next()));
  }
  return corpus;
}

std::vector<Digest128> SortedKeys(const DigestMap& map) {
  auto keys = map.Keys();
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(DigestMap, EmptyMapContainsNothing) {
  const DigestMap map{std::vector<Digest128>{}};
  EXPECT_TRUE(map.Empty());
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_FALSE(map.Contains(Digest128::FromWords(1, 2)));
  EXPECT_TRUE(map.Keys().empty());
  const DigestMap default_constructed;
  EXPECT_FALSE(default_constructed.Contains(Digest128::FromWords(1, 2)));
}

TEST(DigestMap, AgreesWithBinarySearchOnRandomCorpus) {
  const auto corpus = RandomCorpus(5000, 0xd1d1);
  auto sorted = corpus;
  std::sort(sorted.begin(), sorted.end());
  const DigestMap map(corpus);

  for (const auto& digest : corpus) {
    EXPECT_TRUE(map.Contains(digest));
  }
  // Random probes (overwhelmingly non-members) must give the same answer
  // binary search over the sorted list gives.
  for (const auto& probe : RandomCorpus(2000, 0xfeed)) {
    EXPECT_EQ(map.Contains(probe),
              std::binary_search(sorted.begin(), sorted.end(), probe));
  }
}

TEST(DigestMap, LowWordCollisionsDoNotConfuseMembership) {
  // Every digest here shares its low 64 bits; membership rests on the
  // full-digest comparison in the slot, not on either word alone.
  // Members must be found, the absent sibling must not.
  constexpr std::uint64_t kSharedLow = 0x1234567812345678ull;
  std::vector<Digest128> corpus;
  for (std::uint64_t hi = 0; hi < 257; ++hi) {
    corpus.push_back(Digest128::FromWords(hi, kSharedLow));
  }
  const DigestMap map(corpus);
  for (const auto& digest : corpus) {
    EXPECT_TRUE(map.Contains(digest));
  }
  EXPECT_FALSE(map.Contains(Digest128::FromWords(999, kSharedLow)));
  EXPECT_FALSE(map.Contains(Digest128::FromWords(0, kSharedLow + 1)));
}

TEST(DigestMap, FnvDigestsSpreadAcrossHomeSlots) {
  // FnvDigest fills word 0 and leaves word 1 zero. A slot hash of word 1
  // alone sends every FNV digest to one home slot, and insert and probe
  // go quadratic; folding both words spreads them like any other digest.
  constexpr std::uint64_t kSlots = 1024;
  std::set<std::uint64_t> homes;
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    const auto digest = FnvDigest(&i, sizeof(i));
    ASSERT_EQ(digest.words[1], 0u);
    homes.insert(DigestSlotHash(digest) & (kSlots - 1));
  }
  // Uniform hashing fills ~1 - 1/e of the slots (~647).
  EXPECT_GT(homes.size(), kSlots / 2);
}

TEST(DigestMap, DeduplicatesAndListsKeys) {
  auto corpus = RandomCorpus(1000, 0xabcd);
  auto with_dups = corpus;
  with_dups.insert(with_dups.end(), corpus.begin(), corpus.end());
  const DigestMap map(with_dups);
  EXPECT_EQ(map.Size(), corpus.size());
  EXPECT_GE(map.Capacity(), 2 * map.Size());

  std::sort(corpus.begin(), corpus.end());
  EXPECT_EQ(SortedKeys(map), corpus);
}

TEST(DigestMap, AnyDigestValueIsStorable) {
  // Vacancy is marked in the value, not the key, so no 128-bit digest is
  // reserved: the all-zero and all-ones words are keys like any other.
  const auto fixed =
      Digest128::FromWords(0x9d5c6fabe17c4e2bull, 0x3f84a1d0c2b96e57ull);
  const auto zero = Digest128::FromWords(0, 0);
  const auto ones = Digest128::FromWords(~0ull, ~0ull);
  std::vector<Digest128> corpus = RandomCorpus(16, 0x11);
  corpus.insert(corpus.end(), {fixed, zero, ones, fixed});
  const DigestMap map(corpus);
  EXPECT_TRUE(map.Contains(fixed));
  EXPECT_TRUE(map.Contains(zero));
  EXPECT_TRUE(map.Contains(ones));
  EXPECT_EQ(map.Size(), 19u);
  auto sorted = RandomCorpus(16, 0x11);
  sorted.insert(sorted.end(), {fixed, zero, ones});
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(SortedKeys(map), sorted);
}

TEST(DigestMap, InsertingTheVacantMarkerThrows) {
  DigestMap map;
  EXPECT_THROW(map.Insert(Digest128::FromWords(1, 2), DigestMap::kVacant),
               CheckFailure);
  EXPECT_TRUE(map.Empty());
  EXPECT_TRUE(map.Insert(Digest128::FromWords(1, 2), DigestMap::kVacant - 1));
  EXPECT_EQ(*map.Find(Digest128::FromWords(1, 2)), DigestMap::kVacant - 1);
}

TEST(DigestMap, SpanConstructorKeepsFirstPositions) {
  // Heavy duplication: 4000 draws from 37 distinct digests. Each must map
  // to the index of its first occurrence, as a first-wins model says.
  const auto pool = RandomCorpus(37, 0x5eed);
  Xoshiro256 rng(0x5eed);
  std::vector<Digest128> digests;
  std::map<Digest128, std::uint64_t> first;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    digests.push_back(pool[rng.Next() % pool.size()]);
    first.emplace(digests.back(), i);
  }
  const DigestMap map(digests);
  ASSERT_EQ(map.Size(), first.size());
  for (const auto& [digest, position] : first) {
    const std::uint64_t* found = map.Find(digest);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, position);
  }
}

}  // namespace
}  // namespace vecycle
