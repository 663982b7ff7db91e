// FIPS 180-4 conformance and API tests for the from-scratch SHA-256
// (src/crypto/sha256) and the digest/secret types.  The conformance
// vectors run on both block compressors, the scalar reference and SHA-NI,
// picked through the SIMD dispatch hooks of math/simd.hpp.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/secret.hpp"
#include "math/simd.hpp"

namespace swapgame::crypto {
namespace {

using math::simd::SimdLevel;

enum class Compressor { kScalar, kShaNi };

/// Pins the SIMD dispatch to a level that selects the compressor under
/// test, and restores the env + CPUID choice afterwards.
class Sha256Compressor : public testing::TestWithParam<Compressor> {
 protected:
  void SetUp() override {
    if (GetParam() == Compressor::kScalar) {
      ASSERT_TRUE(math::simd::force_level(SimdLevel::kScalar));
      ASSERT_FALSE(Sha256::uses_sha_ni());
      return;
    }
    if (!math::simd::sha_supported()) {
      GTEST_SKIP() << "this CPU has no SHA-NI; only the scalar compressor "
                      "was tested";
    }
    if (!math::simd::force_level(SimdLevel::kAvx2)) {
      GTEST_SKIP() << "SHA-NI runs at a vector dispatch level, and this CPU "
                      "has no AVX2; only the scalar compressor was tested";
    }
    ASSERT_TRUE(Sha256::uses_sha_ni());
  }
  void TearDown() override { math::simd::reset_level(); }
};

INSTANTIATE_TEST_SUITE_P(
    Compressors, Sha256Compressor,
    testing::Values(Compressor::kScalar, Compressor::kShaNi),
    [](const testing::TestParamInfo<Compressor>& param) {
      return param.param == Compressor::kScalar ? std::string("scalar")
                                               : std::string("sha_ni");
    });

TEST_P(Sha256Compressor, FipsVectorEmptyString) {
  EXPECT_EQ(Sha256::hash("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Compressor, FipsVectorAbc) {
  EXPECT_EQ(Sha256::hash("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Compressor, FipsVectorTwoBlockMessage) {
  EXPECT_EQ(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Compressor, FipsVectorMillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST_P(Sha256Compressor, PaddingBoundaryLengths) {
  // Lengths around the 55/56 byte padding boundary and the 64-byte block
  // boundary must all round-trip through the incremental interface.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    for (char c : msg) {
      a.update(std::string_view(&c, 1));
    }
    EXPECT_EQ(a.finalize(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST_P(Sha256Compressor, EveryLengthThroughTwoBlocksIsPinned) {
  // One digest over the concatenated 32-byte digests of 'x' * len for len
  // 0..129, which crosses the 55/56-byte padding split and the 64-byte
  // block boundary twice.  Reference computed with Python's hashlib:
  //   h = hashlib.sha256()
  //   for n in range(130): h.update(hashlib.sha256(b'x' * n).digest())
  //   h.hexdigest()
  Sha256 all;
  for (std::size_t len = 0; len < 130; ++len) {
    all.update(Sha256::hash(std::string(len, 'x')).bytes());
  }
  EXPECT_EQ(all.finalize().to_hex(),
            "6d0989028287a2bd990515b95658bb810cf688b69517dfc49e4b3778e0b6d923");
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("first");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize(), Sha256::hash("abc"));
}

TEST(Sha256, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("b"));
  EXPECT_NE(Sha256::hash("abc"), Sha256::hash("abd"));
  EXPECT_NE(Sha256::hash(""), Sha256::hash(std::string(1, '\0')));
}

TEST(Digest256, HexRoundTrip) {
  const Digest256 d = Sha256::hash("roundtrip");
  EXPECT_EQ(Digest256::from_hex(d.to_hex()), d);
}

TEST(Digest256, FromHexRejectsBadInput) {
  EXPECT_THROW((void)Digest256::from_hex("abc"), std::invalid_argument);
  EXPECT_THROW((void)Digest256::from_hex(std::string(64, 'g')),
               std::invalid_argument);
  EXPECT_NO_THROW((void)Digest256::from_hex(std::string(64, 'A')));  // upper ok
}

TEST(Digest256, ConstantTimeEquals) {
  const Digest256 a = Sha256::hash("x");
  const Digest256 b = Sha256::hash("x");
  const Digest256 c = Sha256::hash("y");
  EXPECT_TRUE(a.constant_time_equals(b));
  EXPECT_FALSE(a.constant_time_equals(c));
}

TEST(Digest256, OrderingIsLexicographic) {
  const Digest256 zero;
  const Digest256 some = Sha256::hash("z");
  EXPECT_TRUE(zero < some || some < zero);
  EXPECT_FALSE(zero < zero);
}

TEST(Secret, CommitmentMatchesSha256OfBytes) {
  math::Xoshiro256 rng(99);
  const Secret s = Secret::generate(rng);
  const Digest256 direct = Sha256::hash(
      std::span<const std::uint8_t>(s.bytes().data(), s.bytes().size()));
  EXPECT_EQ(s.commitment(), direct);
}

TEST(Secret, OpensOnlyItsOwnCommitment) {
  math::Xoshiro256 rng(7);
  const Secret s1 = Secret::generate(rng);
  const Secret s2 = Secret::generate(rng);
  EXPECT_NE(s1, s2);
  EXPECT_TRUE(s1.opens(s1.commitment()));
  EXPECT_FALSE(s1.opens(s2.commitment()));
  EXPECT_FALSE(s2.opens(s1.commitment()));
}

TEST(Secret, GenerationIsDeterministicPerSeed) {
  math::Xoshiro256 a(1234), b(1234);
  EXPECT_EQ(Secret::generate(a), Secret::generate(b));
}

TEST(ToHex, EncodesBytes) {
  const std::vector<std::uint8_t> bytes = {0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(to_hex(bytes), "000fa5ff");
}

}  // namespace
}  // namespace swapgame::crypto
