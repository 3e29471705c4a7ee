#ifndef WEDGEBLOCK_STORAGE_FRAMED_LOG_H_
#define WEDGEBLOCK_STORAGE_FRAMED_LOG_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "telemetry/metrics.h"

namespace wedge {

/// The one framed-record format on disk: [u32 payload_len][payload]
/// [32B sha256(payload)]. AggregatorJournal and the segment store's WAL
/// and segments all write it.
inline constexpr size_t kFrameOverhead = 4 + 32;

/// Appends the frame of `payload` to `out`.
void AppendFrame(Bytes& out, const Bytes& payload);

/// The payload of `frame`, which must hold exactly one intact frame;
/// Corruption otherwise.
Result<Bytes> DecodeFrame(const Bytes& frame);

/// Reads frames from the start of `in`, handing each intact payload to
/// `apply`, until the end, a torn or corrupt frame, or a payload `apply`
/// rejects (returns false). Returns the offset just past the last
/// accepted frame.
long ReplayFrames(FILE* in, const std::function<bool(Bytes&&)>& apply);

/// An append-only file of frames. Append() acks a frame only once it has
/// reached the OS (and the disk, with `fsync`); a failed append is rolled
/// back to the last acked frame, so a torn frame never sits in front of a
/// later acked one (replay would drop everything behind it). When even
/// the rollback fails the log is poisoned: every later write fails.
/// Not thread-safe: the owner serializes calls.
class FramedLog {
 public:
  struct Options {
    /// fsync after every append (fflush before the ack is unconditional).
    bool fsync = false;
    /// Fault injection (tests): an append that would grow the file past
    /// this many bytes writes a torn frame and fails like a full disk.
    uint64_t fail_after_bytes = 0;
    Histogram* fsync_hist = nullptr;  ///< Optional fsync latency sink.
  };

  /// Opens (creating if needed) the log at `path`, replays it through
  /// ReplayFrames and truncates it after the last accepted frame.
  static Result<std::unique_ptr<FramedLog>> Open(
      const std::string& path, const Options& options,
      const std::function<bool(Bytes&&)>& replay);

  ~FramedLog();
  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Appends one frame. kIoError on failure, with nothing acked.
  Status Append(const Bytes& payload);

  /// Flushes buffered writes to the OS (and to disk with `fsync`).
  Status Flush();

 private:
  FramedLog(std::string path, const Options& options)
      : path_(std::move(path)), options_(options) {}

  /// Truncates back to acked_bytes_, or poisons the log if that fails.
  Status RollbackAppend(const std::string& error);

  const std::string path_;
  const Options options_;
  FILE* file_ = nullptr;
  /// File offset after the last acked frame.
  uint64_t acked_bytes_ = 0;
  /// First unrecoverable I/O failure; all later writes fail with it.
  Status poison_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_STORAGE_FRAMED_LOG_H_
