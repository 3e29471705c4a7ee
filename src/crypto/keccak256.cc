#include "crypto/keccak256.h"

#include <cstring>

namespace wedge {

namespace {

constexpr uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

inline uint64_t Rotl64(uint64_t x, int n) {
  return (x << n) | (x >> (64 - n));
}

/// Keccak lanes are little-endian 64-bit words.
inline uint64_t LoadLane(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

inline void StoreLane(uint64_t v, uint8_t* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  std::memcpy(p, &v, sizeof(v));
}

/// The 24-round permutation with every lane index a constant: theta,
/// rho-pi and chi are written out lane by lane, so the state stays in
/// registers and no index is computed at run time.
void KeccakF1600(uint64_t* s) {
  for (int round = 0; round < 24; ++round) {
    // Theta: column parities, then each lane ^= d[x].
    const uint64_t c0 = s[0] ^ s[5] ^ s[10] ^ s[15] ^ s[20];
    const uint64_t c1 = s[1] ^ s[6] ^ s[11] ^ s[16] ^ s[21];
    const uint64_t c2 = s[2] ^ s[7] ^ s[12] ^ s[17] ^ s[22];
    const uint64_t c3 = s[3] ^ s[8] ^ s[13] ^ s[18] ^ s[23];
    const uint64_t c4 = s[4] ^ s[9] ^ s[14] ^ s[19] ^ s[24];
    const uint64_t d0 = c4 ^ Rotl64(c1, 1);
    const uint64_t d1 = c0 ^ Rotl64(c2, 1);
    const uint64_t d2 = c1 ^ Rotl64(c3, 1);
    const uint64_t d3 = c2 ^ Rotl64(c4, 1);
    const uint64_t d4 = c3 ^ Rotl64(c0, 1);
    // Rho and pi: lane (x, y) rotates by r[x][y] into (y, 2x + 3y);
    // chi then mixes each row of the permuted lanes.
    const uint64_t b00 = s[0] ^ d0;
    const uint64_t b01 = Rotl64(s[6] ^ d1, 44);
    const uint64_t b02 = Rotl64(s[12] ^ d2, 43);
    const uint64_t b03 = Rotl64(s[18] ^ d3, 21);
    const uint64_t b04 = Rotl64(s[24] ^ d4, 14);
    const uint64_t b10 = Rotl64(s[3] ^ d3, 28);
    const uint64_t b11 = Rotl64(s[9] ^ d4, 20);
    const uint64_t b12 = Rotl64(s[10] ^ d0, 3);
    const uint64_t b13 = Rotl64(s[16] ^ d1, 45);
    const uint64_t b14 = Rotl64(s[22] ^ d2, 61);
    const uint64_t b20 = Rotl64(s[1] ^ d1, 1);
    const uint64_t b21 = Rotl64(s[7] ^ d2, 6);
    const uint64_t b22 = Rotl64(s[13] ^ d3, 25);
    const uint64_t b23 = Rotl64(s[19] ^ d4, 8);
    const uint64_t b24 = Rotl64(s[20] ^ d0, 18);
    const uint64_t b30 = Rotl64(s[4] ^ d4, 27);
    const uint64_t b31 = Rotl64(s[5] ^ d0, 36);
    const uint64_t b32 = Rotl64(s[11] ^ d1, 10);
    const uint64_t b33 = Rotl64(s[17] ^ d2, 15);
    const uint64_t b34 = Rotl64(s[23] ^ d3, 56);
    const uint64_t b40 = Rotl64(s[2] ^ d2, 62);
    const uint64_t b41 = Rotl64(s[8] ^ d3, 55);
    const uint64_t b42 = Rotl64(s[14] ^ d4, 39);
    const uint64_t b43 = Rotl64(s[15] ^ d0, 41);
    const uint64_t b44 = Rotl64(s[21] ^ d1, 2);
    // Chi.
    s[0] = b00 ^ (~b01 & b02);
    s[1] = b01 ^ (~b02 & b03);
    s[2] = b02 ^ (~b03 & b04);
    s[3] = b03 ^ (~b04 & b00);
    s[4] = b04 ^ (~b00 & b01);
    s[5] = b10 ^ (~b11 & b12);
    s[6] = b11 ^ (~b12 & b13);
    s[7] = b12 ^ (~b13 & b14);
    s[8] = b13 ^ (~b14 & b10);
    s[9] = b14 ^ (~b10 & b11);
    s[10] = b20 ^ (~b21 & b22);
    s[11] = b21 ^ (~b22 & b23);
    s[12] = b22 ^ (~b23 & b24);
    s[13] = b23 ^ (~b24 & b20);
    s[14] = b24 ^ (~b20 & b21);
    s[15] = b30 ^ (~b31 & b32);
    s[16] = b31 ^ (~b32 & b33);
    s[17] = b32 ^ (~b33 & b34);
    s[18] = b33 ^ (~b34 & b30);
    s[19] = b34 ^ (~b30 & b31);
    s[20] = b40 ^ (~b41 & b42);
    s[21] = b41 ^ (~b42 & b43);
    s[22] = b42 ^ (~b43 & b44);
    s[23] = b43 ^ (~b44 & b40);
    s[24] = b44 ^ (~b40 & b41);
    // Iota.
    s[0] ^= kRoundConstants[round];
  }
}

}  // namespace

Keccak256::Keccak256() { Reset(); }

void Keccak256::Reset() {
  std::memset(state_, 0, sizeof(state_));
  buffer_len_ = 0;
}

void Keccak256::Update(const uint8_t* data, size_t len) {
  while (len > 0) {
    size_t fill = std::min(len, kRate - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, fill);
    buffer_len_ += fill;
    data += fill;
    len -= fill;
    if (buffer_len_ == kRate) {
      Absorb();
      buffer_len_ = 0;
    }
  }
}

void Keccak256::Absorb() {
  for (size_t i = 0; i < kRate / 8; ++i) {
    state_[i] ^= LoadLane(buffer_ + i * 8);
  }
  KeccakF1600(state_);
}

Hash256 Keccak256::Finish() {
  // Keccak (pre-SHA3) padding: 0x01 ... 0x80.
  std::memset(buffer_ + buffer_len_, 0, kRate - buffer_len_);
  buffer_[buffer_len_] ^= 0x01;
  buffer_[kRate - 1] ^= 0x80;
  Absorb();
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 4; ++i) StoreLane(state_[i], out.data() + i * 8);
  return out;
}

Hash256 Keccak256::Digest(const uint8_t* data, size_t len) {
  Keccak256 h;
  h.Update(data, len);
  return h.Finish();
}

Hash256 Keccak256::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

Hash256 Keccak256::Digest(std::string_view data) {
  return Digest(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

}  // namespace wedge
