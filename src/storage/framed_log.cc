#include "storage/framed_log.h"

#include <unistd.h>

#include <cstring>

#include "common/clock.h"
#include "crypto/sha256.h"

namespace wedge {

void AppendFrame(Bytes& out, const Bytes& payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  Append(out, payload);
  Append(out, HashToBytes(Sha256::Digest(payload)));
}

Result<Bytes> DecodeFrame(const Bytes& frame) {
  ByteReader reader(frame);
  Result<uint32_t> len = reader.ReadU32();
  if (!len.ok() || len.value() + kFrameOverhead != frame.size()) {
    return Status::Corruption("frame length mismatch");
  }
  Bytes payload(frame.begin() + 4, frame.begin() + 4 + len.value());
  Hash256 expect = Sha256::Digest(payload);
  if (std::memcmp(frame.data() + 4 + len.value(), expect.data(), 32) != 0) {
    return Status::Corruption("frame checksum mismatch");
  }
  return payload;
}

long ReplayFrames(FILE* in, const std::function<bool(Bytes&&)>& apply) {
  std::fseek(in, 0, SEEK_END);
  const long file_size = std::ftell(in);
  std::rewind(in);
  long valid_end = 0;
  for (Bytes frame(4); std::fread(frame.data(), 1, 4, in) == 4;) {
    const size_t rest = ByteReader(frame).ReadU32().value() + size_t{32};
    // A length past the end of the file is a torn header, not a reason
    // to allocate gigabytes.
    if (static_cast<long>(rest) > file_size - std::ftell(in)) break;
    frame.resize(4 + rest);
    if (std::fread(frame.data() + 4, 1, rest, in) != rest) break;
    Result<Bytes> payload = DecodeFrame(frame);
    if (!payload.ok() || !apply(std::move(payload).value())) break;
    valid_end = std::ftell(in);
    frame.resize(4);
  }
  return valid_end;
}

Result<std::unique_ptr<FramedLog>> FramedLog::Open(
    const std::string& path, const Options& options,
    const std::function<bool(Bytes&&)>& replay) {
  std::unique_ptr<FramedLog> log(new FramedLog(path, options));
  FILE* in = std::fopen(path.c_str(), "rb");
  long valid_end = 0;
  if (in != nullptr) {
    valid_end = ReplayFrames(in, replay);
    std::fclose(in);
  }

  // Best effort: appends overwrite from valid_end either way.
  FILE* f = std::fopen(path.c_str(), in != nullptr ? "rb+" : "wb+");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  if (in != nullptr) {
    if (std::fseek(f, 0, SEEK_END) == 0 && std::ftell(f) > valid_end) {
      (void)!ftruncate(fileno(f), valid_end);
    }
    std::fseek(f, valid_end, SEEK_SET);
  }
  log->file_ = f;
  log->acked_bytes_ = static_cast<uint64_t>(valid_end);
  return log;
}

FramedLog::~FramedLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FramedLog::Append(const Bytes& payload) {
  WEDGE_RETURN_IF_ERROR(poison_);
  Bytes frame;
  frame.reserve(payload.size() + kFrameOverhead);
  AppendFrame(frame, payload);

  // Fault injection: a full disk writes part of the frame, then fails.
  size_t allowed = frame.size();
  if (options_.fail_after_bytes != 0 &&
      acked_bytes_ + frame.size() > options_.fail_after_bytes) {
    allowed = options_.fail_after_bytes > acked_bytes_
                  ? static_cast<size_t>(options_.fail_after_bytes -
                                        acked_bytes_)
                  : 0;
  }

  if (std::fwrite(frame.data(), 1, allowed, file_) != frame.size()) {
    return RollbackAppend("short write");
  }
  if (std::fflush(file_) != 0) {
    // Always push the frame into the page cache before acking: a frame
    // left in the stdio buffer dies with the process, and a SIGKILL would
    // then silently drop an acked record.
    return RollbackAppend("fflush failed");
  }
  if (options_.fsync) {
    Stopwatch watch(RealClock::Global());
    if (fsync(fileno(file_)) != 0) return RollbackAppend("fsync failed");
    if (options_.fsync_hist != nullptr) {
      options_.fsync_hist->Record(watch.ElapsedMicros());
    }
  }
  acked_bytes_ += frame.size();
  return Status::Ok();
}

Status FramedLog::RollbackAppend(const std::string& error) {
  // Flush first (best effort) so buffered partial bytes reach the fd
  // before the truncate; clear stdio's sticky error either way.
  std::fflush(file_);
  std::clearerr(file_);
  if (ftruncate(fileno(file_), static_cast<off_t>(acked_bytes_)) != 0 ||
      std::fseek(file_, static_cast<long>(acked_bytes_), SEEK_SET) != 0) {
    poison_ = Status::IoError(error + "; rollback failed, log is read-only: " +
                              path_);
    return poison_;
  }
  return Status::IoError(error + ": " + path_);
}

Status FramedLog::Flush() {
  WEDGE_RETURN_IF_ERROR(poison_);
  if (std::fflush(file_) != 0) {
    return Status::IoError("fflush failed: " + path_);
  }
  if (options_.fsync && fsync(fileno(file_)) != 0) {
    return Status::IoError("fsync failed: " + path_);
  }
  return Status::Ok();
}

}  // namespace wedge
