// SyncedMemory: the Blob backing store, modelled after Caffe's class of the
// same name. Caffe uses it to conceal CPU<->GPU transfers; since this
// reproduction has no physical GPU (see DESIGN.md §4) the "device" side is a
// second host buffer. Keeping the two-headed state machine intact preserves
// Caffe's API and accounts for host<->device traffic: every synchronizing
// transition is counted in TransferStats.
#pragma once

#include <cstddef>
#include <memory>

#include "cgdnn/core/common.hpp"

namespace cgdnn {

/// Global counters of modelled host<->device transfers (bytes and count).
struct TransferStats {
  std::size_t to_device_bytes = 0;
  std::size_t to_host_bytes = 0;
  std::size_t to_device_count = 0;
  std::size_t to_host_count = 0;

  static TransferStats& Get();
  void Reset();
};

/// Allocates `bytes` of 64-byte-aligned zero-initialized memory; RAII-owned.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes);
  ~AlignedBuffer();

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  void* get() const { return ptr_; }
  std::size_t bytes() const { return bytes_; }

 private:
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

class SyncedMemory {
 public:
  enum class Head { kUninitialized, kAtCpu, kAtDevice, kSynced };

  explicit SyncedMemory(std::size_t bytes);
  ~SyncedMemory() = default;
  SyncedMemory(const SyncedMemory&) = delete;
  SyncedMemory& operator=(const SyncedMemory&) = delete;

  const void* cpu_data();
  const void* device_data();
  void* mutable_cpu_data();
  void* mutable_device_data();

  /// Adopt an external CPU buffer without copying (used for zero-copy
  /// sharing, e.g. data layers handing a batch slice to the net). The caller
  /// retains ownership and must keep the buffer alive.
  void set_cpu_data(void* data);

  std::size_t size() const { return bytes_; }
  Head head() const { return head_; }

 private:
  void ToCpu();
  void ToDevice();

  AlignedBuffer cpu_buffer_;
  AlignedBuffer device_buffer_;
  void* cpu_ptr_ = nullptr;     // points into cpu_buffer_ or external memory
  void* device_ptr_ = nullptr;  // points into device_buffer_
  bool own_cpu_data_ = true;
  std::size_t bytes_ = 0;
  Head head_ = Head::kUninitialized;
};

}  // namespace cgdnn
