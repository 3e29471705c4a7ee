#include "crypto/keccak256.h"

#include <gtest/gtest.h>

namespace wedge {
namespace {

// Ethereum-style Keccak-256 (original Keccak padding, not SHA3).
TEST(Keccak256Test, EmptyString) {
  EXPECT_EQ(HashToHex(Keccak256::Digest("")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256Test, Abc) {
  EXPECT_EQ(HashToHex(Keccak256::Digest("abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256Test, Hello) {
  // Well-known Ethereum documentation example.
  EXPECT_EQ(HashToHex(Keccak256::Digest("hello")),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(Keccak256Test, MultiBlockOutputsPinned) {
  // Digests of inputs spanning three and nine 136-byte rate blocks, pinned
  // from the loop-indexed permutation the unrolled one replaced.
  Bytes three(300);
  for (size_t i = 0; i < three.size(); ++i) {
    three[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  EXPECT_EQ(HashToHex(Keccak256::Digest(three)),
            "f10b5f4756f414ea659c96a9104b919d2441dca5c621babd0d26fefa15a64208");
  Bytes nine(1088);
  for (size_t i = 0; i < nine.size(); ++i) {
    nine[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  EXPECT_EQ(HashToHex(Keccak256::Digest(nine)),
            "335813ade0c243abfcdfe33a6261656fae71e0e2c603288cb205257741720a94");
}

TEST(Keccak256Test, IncrementalMatchesOneShot) {
  std::string msg(1000, 'k');  // Crosses several 136-byte rate blocks.
  Hash256 oneshot = Keccak256::Digest(msg);
  Keccak256 h;
  for (size_t i = 0; i < msg.size(); i += 13) {
    h.Update(msg.substr(i, 13));
  }
  EXPECT_EQ(h.Finish(), oneshot);
}

TEST(Keccak256Test, ResetRestoresInitialState) {
  Keccak256 h;
  h.Update("garbage");
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(HashToHex(h.Finish()),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256Test, DiffersFromSha256Family) {
  // Keccak-256("") differs from SHA3-256("") — padding difference matters.
  EXPECT_NE(HashToHex(Keccak256::Digest("")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

class KeccakBoundaryTest : public ::testing::TestWithParam<int> {};

TEST_P(KeccakBoundaryTest, RateBoundaries) {
  int len = GetParam();
  std::string msg(len, 'y');
  Hash256 a = Keccak256::Digest(msg);
  Keccak256 h;
  for (char c : msg) h.Update(std::string(1, c));
  EXPECT_EQ(h.Finish(), a);
}

INSTANTIATE_TEST_SUITE_P(RateEdges, KeccakBoundaryTest,
                         ::testing::Values(0, 1, 135, 136, 137, 271, 272, 273));

}  // namespace
}  // namespace wedge
