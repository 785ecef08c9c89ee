#pragma once
// Strongly typed object identifiers.
//
// Every framework object (JCF cell, FMCAD cellview, OMS object, ...) is
// addressed by an Id<Tag>: a 64-bit handle that cannot be accidentally
// mixed between domains. Id 0 is the invalid/null id.

#include <cstdint>
#include <functional>
#include <ostream>

namespace jfm::support {

template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t raw) : raw_(raw) {}

  constexpr std::uint64_t raw() const noexcept { return raw_; }
  constexpr bool valid() const noexcept { return raw_ != 0; }
  constexpr explicit operator bool() const noexcept { return valid(); }

  friend constexpr bool operator==(Id a, Id b) noexcept { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Id a, Id b) noexcept { return a.raw_ != b.raw_; }
  friend constexpr bool operator<(Id a, Id b) noexcept { return a.raw_ < b.raw_; }

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    return os << Tag::prefix() << id.raw_;
  }

 private:
  std::uint64_t raw_ = 0;
};

/// Monotonic id allocator; one per store.
template <typename Tag>
class IdAllocator {
 public:
  Id<Tag> next() noexcept { return Id<Tag>(++last_); }
  std::uint64_t issued() const noexcept { return last_; }
  /// Mark every id up to `raw` as issued (no-op if already past it).
  void advance_to(std::uint64_t raw) noexcept {
    if (raw > last_) last_ = raw;
  }

 private:
  std::uint64_t last_ = 0;
};

}  // namespace jfm::support

// std::hash support so ids can key unordered containers.
namespace std {
template <typename Tag>
struct hash<jfm::support::Id<Tag>> {
  size_t operator()(jfm::support::Id<Tag> id) const noexcept {
    return std::hash<uint64_t>{}(id.raw());
  }
};
}  // namespace std
