#include "ncnas/tensor/arena.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "ncnas/obs/profiler.hpp"

namespace ncnas::tensor::detail {

namespace {

// First chunk sized for a typical pack panel set (256 KiB = 64k floats);
// later chunks double so any workload settles after O(log) growths.
constexpr std::size_t kMinChunkFloats = 64 * 1024;
constexpr std::size_t kAlignFloats = 16;  // 64-byte alignment in floats

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

}  // namespace

Arena::Chunk::Chunk(std::size_t floats) : size_(floats) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  bytes_ = (floats * sizeof(float) + page - 1) / page * page;
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<float*>(p);
}

Arena::Chunk::~Chunk() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

Arena& Arena::local() {
  thread_local Arena arena;
  return arena;
}

float* Arena::alloc(std::size_t n) {
  const std::size_t want = std::max<std::size_t>(1, align_up(n));
  // Advance through existing chunks before growing a new one.
  while (chunk_ < chunks_.size()) {
    Chunk& c = chunks_[chunk_];
    if (used_ + want <= c.size()) {
      float* out = c.data() + used_;
      used_ += want;
      return out;
    }
    ++chunk_;
    used_ = 0;
  }
  std::size_t grow = std::max(want, kMinChunkFloats);
  if (!chunks_.empty()) grow = std::max(grow, chunks_.back().size() * 2);
  chunks_.emplace_back(grow);
  obs::profile_alloc(grow * sizeof(float));
  chunk_ = chunks_.size() - 1;
  used_ = want;
  return chunks_.back().data();
}

std::size_t Arena::capacity_floats() const noexcept {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size();
  return total;
}

}  // namespace ncnas::tensor::detail
