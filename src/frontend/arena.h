// Bump allocation for parse trees (DESIGN §2).
//
// Everything one parse builds (the source copy its tokens view, the nodes,
// their child arrays and composed text) lives in one Arena, and the tree
// handle owns it. A parse therefore makes a constant number of heap calls,
// and dropping a tree releases a few blocks instead of freeing every node.
// Released blocks go to a small per-thread cache that the next arena on the
// thread draws from: a cached block is already mapped, while a fresh one
// pays its page faults again on first touch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace clpp::frontend {

struct ArenaBlock;  // a header and the bytes after it; see arena.cpp

class Arena {
 public:
  Arena() = default;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { release(); }

  /// Makes sure the next `bytes` of allocations fit one block, so a caller
  /// that can estimate its need gets it from at most one heap call.
  void reserve(std::size_t bytes);

  /// `bytes` of uninitialized storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t)), valid until the arena dies.
  void* allocate(std::size_t bytes, std::size_t align) {
    const std::uintptr_t at =
        (reinterpret_cast<std::uintptr_t>(cursor_) + align - 1) & ~(align - 1);
    if (at + bytes > reinterpret_cast<std::uintptr_t>(limit_))
      return allocate_in_new_block(bytes, align);
    cursor_ = reinterpret_cast<char*>(at + bytes);
    return reinterpret_cast<void*>(at);
  }

  template <typename T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// A copy of `text` that lives as long as the arena.
  std::string_view store(std::string_view text);

 private:
  void* allocate_in_new_block(std::size_t bytes, std::size_t align);
  void start_block(std::size_t bytes);
  void release();

  ArenaBlock* blocks_ = nullptr;  // the current block, linking to earlier ones
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
};

}  // namespace clpp::frontend
