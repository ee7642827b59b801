#include "frontend/arena.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace clpp::frontend {

struct ArenaBlock {
  ArenaBlock* next;
  std::size_t capacity;  // bytes after the header

  char* data() { return reinterpret_cast<char*>(this + 1); }
};

namespace {

// The smallest block: a one-loop snippet's whole tree fits.
constexpr std::size_t kMinBlock = 4096 - sizeof(ArenaBlock);
// A block added because an estimate fell short doubles the one before, up
// to this size.
constexpr std::size_t kMaxGrowth = std::size_t{1} << 20;
// Bytes of released blocks a thread keeps for its next parses.
constexpr std::size_t kCacheBytes = std::size_t{2} << 20;

void delete_block(ArenaBlock* block) { ::operator delete(block); }

/// One thread's released blocks, smallest first.
struct BlockCache {
  ArenaBlock* blocks = nullptr;
  std::size_t bytes = 0;

  ~BlockCache();
};

// Set when the thread's cache is destroyed: a tree that outlives it (one a
// static object holds, say) frees its blocks instead.
thread_local bool t_cache_closed = false;
thread_local BlockCache t_cache;

BlockCache::~BlockCache() {
  while (blocks != nullptr) delete_block(std::exchange(blocks, blocks->next));
  t_cache_closed = true;
}

/// The smallest cached block of at least `capacity` bytes, else a new one.
ArenaBlock* take_block(std::size_t capacity) {
  if (!t_cache_closed) {
    BlockCache& cache = t_cache;
    for (ArenaBlock** link = &cache.blocks; *link != nullptr; link = &(*link)->next) {
      ArenaBlock* block = *link;
      if (block->capacity < capacity) continue;
      *link = block->next;
      cache.bytes -= block->capacity;
      return block;
    }
  }
  auto* block = static_cast<ArenaBlock*>(::operator new(sizeof(ArenaBlock) + capacity));
  block->capacity = capacity;
  return block;
}

/// Caches `block` for the thread's next parses, or frees it when the cache
/// is full or gone.
void give_back(ArenaBlock* block) {
  if (t_cache_closed || t_cache.bytes + block->capacity > kCacheBytes) {
    delete_block(block);
    return;
  }
  BlockCache& cache = t_cache;
  ArenaBlock** link = &cache.blocks;
  while (*link != nullptr && (*link)->capacity < block->capacity) link = &(*link)->next;
  block->next = *link;
  *link = block;
  cache.bytes += block->capacity;
}

}  // namespace

Arena::Arena(Arena&& other) noexcept
    : blocks_(std::exchange(other.blocks_, nullptr)),
      cursor_(std::exchange(other.cursor_, nullptr)),
      limit_(std::exchange(other.limit_, nullptr)) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    release();
    blocks_ = std::exchange(other.blocks_, nullptr);
    cursor_ = std::exchange(other.cursor_, nullptr);
    limit_ = std::exchange(other.limit_, nullptr);
  }
  return *this;
}

void Arena::reserve(std::size_t bytes) {
  if (static_cast<std::size_t>(limit_ - cursor_) < bytes) start_block(bytes);
}

void* Arena::allocate_in_new_block(std::size_t bytes, std::size_t align) {
  // The caller's estimate fell short: grow geometrically, so a long input
  // still takes few blocks.
  const std::size_t last = blocks_ != nullptr ? blocks_->capacity : 0;
  start_block(std::max(bytes + align, std::min(2 * last, kMaxGrowth)));
  return allocate(bytes, align);
}

void Arena::start_block(std::size_t bytes) {
  ArenaBlock* block = take_block(std::max(bytes, kMinBlock));
  block->next = blocks_;
  blocks_ = block;
  cursor_ = block->data();
  limit_ = cursor_ + block->capacity;
}

std::string_view Arena::store(std::string_view text) {
  if (text.empty()) return {};
  char* copy = allocate_array<char>(text.size());
  std::memcpy(copy, text.data(), text.size());
  return {copy, text.size()};
}

void Arena::release() {
  while (blocks_ != nullptr) give_back(std::exchange(blocks_, blocks_->next));
  cursor_ = limit_ = nullptr;
}

}  // namespace clpp::frontend
