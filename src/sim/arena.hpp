#pragma once
// Arena: a bump allocator for per-node simulation state. Large worlds build
// tens of thousands of long-lived objects (controllers, connections, stacks)
// whose lifetimes all end together at world teardown; allocating each from
// the general heap costs a malloc round-trip and scatters them across the
// address space. The arena carves them out of large contiguous chunks
// instead — construction is a pointer bump, locality follows creation order
// (nodes built together sit together), and teardown is one sweep.
//
// Objects may have non-trivial destructors: the arena keeps a finalizer list
// and runs it in reverse allocation order on reset()/destruction, so
// dependent objects (a connection referencing its controllers) die before
// their dependencies, exactly like the unique_ptr vectors they replace.
//
// Mode::kHeap routes every make<T>() through a plain `new T` instead (so an
// over-aligned T gets the aligned operator new) — same ownership semantics,
// no bump chunks. It exists as the A/B control: a simulation must produce
// bit-identical results under either mode (pinned by test_arena), proving no
// behavior leaked into allocation layout.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mgap::sim {

class Arena {
 public:
  enum class Mode : std::uint8_t { kBump, kHeap };

  /// `max_bytes` caps the total bump-chunk footprint (0 = unlimited);
  /// exceeding it throws std::bad_alloc. The cap exists so embedded-flavored
  /// configurations can assert their memory budget, and so tests can drive
  /// the exhaustion path deterministically.
  explicit Arena(Mode mode = Mode::kBump, std::size_t chunk_bytes = 256 * 1024,
                 std::size_t max_bytes = 0)
      : mode_{mode}, chunk_bytes_{chunk_bytes}, max_bytes_{max_bytes} {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { reset(); }

  /// Constructs a T inside the arena. The pointer stays valid until reset().
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    T* obj;
    if (mode_ == Mode::kHeap) {
      obj = new T(std::forward<Args>(args)...);  // aligned new for over-aligned T
      finalizers_.push_back({&delete_thunk<T>, obj});
    } else {
      obj = new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
      if constexpr (!std::is_trivially_destructible_v<T>) {
        finalizers_.push_back({&destroy_thunk<T>, obj});
      }
    }
    ++objects_;
    return obj;
  }

  /// Destroys every object (reverse allocation order) and releases all
  /// memory. The arena is reusable afterwards.
  void reset() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->destroy(it->obj);
    }
    finalizers_.clear();
    chunks_.clear();
    bump_ = nullptr;
    bump_end_ = nullptr;
    bytes_reserved_ = 0;
    bytes_used_ = 0;
    objects_ = 0;
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::size_t objects() const { return objects_; }
  /// Bytes actually bumped out of chunks (0 in heap mode).
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  /// Chunk footprint reserved so far (0 in heap mode).
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Finalizer {
    void (*destroy)(void*);
    void* obj;
  };

  template <typename T>
  static void destroy_thunk(void* obj) {
    static_cast<T*>(obj)->~T();
  }
  template <typename T>
  static void delete_thunk(void* obj) {
    delete static_cast<T*>(obj);
  }

  void* allocate(std::size_t size, std::size_t align) {
    auto addr = reinterpret_cast<std::uintptr_t>(bump_);
    const std::uintptr_t aligned = (addr + align - 1) & ~(align - 1);
    if (bump_ == nullptr ||
        aligned + size > reinterpret_cast<std::uintptr_t>(bump_end_)) {
      grow(size + align);
      addr = reinterpret_cast<std::uintptr_t>(bump_);
      return finish(((addr + align - 1) & ~(align - 1)), size);
    }
    return finish(aligned, size);
  }

  void* finish(std::uintptr_t aligned, std::size_t size) {
    auto* p = reinterpret_cast<std::byte*>(aligned);
    bytes_used_ += static_cast<std::size_t>(p + size - bump_) ;
    bump_ = p + size;
    return p;
  }

  void grow(std::size_t at_least) {
    const std::size_t chunk = at_least > chunk_bytes_ ? at_least : chunk_bytes_;
    if (max_bytes_ != 0 && bytes_reserved_ + chunk > max_bytes_) {
      throw std::bad_alloc{};
    }
    chunks_.push_back(std::make_unique<std::byte[]>(chunk));
    bump_ = chunks_.back().get();
    bump_end_ = bump_ + chunk;
    bytes_reserved_ += chunk;
  }

  Mode mode_;
  std::size_t chunk_bytes_;
  std::size_t max_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_{nullptr};
  std::byte* bump_end_{nullptr};
  std::size_t bytes_reserved_{0};
  std::size_t bytes_used_{0};
  std::size_t objects_{0};
  std::vector<Finalizer> finalizers_;
};

}  // namespace mgap::sim
