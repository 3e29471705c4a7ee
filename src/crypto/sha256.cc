#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_dispatch.h"

namespace wedge {

Bytes HashToBytes(const Hash256& h) { return Bytes(h.begin(), h.end()); }

Result<Hash256> HashFromBytes(const Bytes& b) {
  if (b.size() != 32) {
    return Status::InvalidArgument("hash must be 32 bytes");
  }
  Hash256 h;
  std::memcpy(h.data(), b.data(), 32);
  return h;
}

std::string HashToHex(const Hash256& h) { return HexEncode(h.data(), h.size()); }

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
  compress_ = ActiveSha256Compress();
}

void Sha256::Update(const uint8_t* data, size_t len) {
  // An empty input may come with a null `data` (an empty Bytes), which
  // memcpy must not see.
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t fill = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, fill);
    buffer_len_ += fill;
    data += fill;
    len -= fill;
    if (buffer_len_ == 64) {
      compress_(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    // Bulk path: hand every whole block to the backend in one call so
    // hardware kernels amortize their setup across the run.
    const size_t blocks = len / 64;
    compress_(state_, data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Build the padding in place: 0x80, zeros to a 56-byte boundary, then
  // the big-endian bit length in the final 8 bytes.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    compress_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_, buffer_, 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Hash256 Sha256::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

Hash256 Sha256::Digest(std::string_view data) {
  return Digest(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

}  // namespace wedge
