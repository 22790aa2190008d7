#pragma once
// Opaque, migration-stable session identity (mvs::fleet).
//
// A SessionHandle names a hosted session independently of WHERE it is
// hosted: the id is a slot in the issuing fleet's handle table and the
// generation counts how many tenants have occupied that slot. Moving a
// session between shards (Fleet migration) changes neither field —
// the handle a caller got from admit() keeps working across any number of
// rebalances. Releasing an evicted session recycles its slot under a
// bumped generation, so a caller holding the OLD handle gets a typed
// kStaleHandle error instead of silently addressing the slot's new tenant
// (the classic reused-id bug the raw-int API could not detect).

#include <cstdint>
#include <vector>

namespace mvs::fleet {

struct SessionHandle {
  std::uint64_t id = 0;   ///< slot in the issuing fleet's handle table
  std::uint32_t gen = 0;  ///< slot generation; 0 = never issued (invalid)

  /// Handles from admit() always carry gen >= 1.
  bool valid() const { return gen != 0; }

  friend bool operator==(const SessionHandle& a, const SessionHandle& b) {
    return a.id == b.id && a.gen == b.gen;
  }
  friend bool operator!=(const SessionHandle& a, const SessionHandle& b) {
    return !(a == b);
  }
};

/// Typed outcome of a handle-addressed lifecycle call.
enum class FleetStatus {
  kOk,
  /// The slot exists but the generation does not match: the session this
  /// handle named was released and the slot reused (or never issued).
  kStaleHandle,
  /// The id is outside the table entirely (never a valid handle).
  kUnknownSession,
  /// The handle is live but the session is in the wrong state for the
  /// operation (e.g. pausing an evicted session, releasing an active one).
  kInvalidState,
};

const char* to_string(FleetStatus status);

/// Slot table mapping live handles to where the session lives (the
/// fleet's directory: hosting shard + the shard's local id). Slots are
/// allocated in admission order and recycled LIFO through a free list;
/// every reuse bumps the generation so retired handles stay detectably
/// stale forever (gen wraps after 2^32 - 1 tenants of one slot, far beyond
/// any serving horizon).
class HandleTable {
 public:
  struct Entry {
    std::uint32_t gen = 0;
    bool live = false;  ///< false once released (slot is in the free list)
    int shard = 0;      ///< hosting shard index
    int local = -1;     ///< the session's local id on that shard
  };

  /// Allocate a slot (reusing the most recently released one first) for
  /// the session at (`shard`, `local`) and return its handle.
  SessionHandle issue(int shard, int local) {
    std::size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = entries_.size();
      entries_.emplace_back();
    }
    Entry& e = entries_[slot];
    ++e.gen;
    e.live = true;
    e.shard = shard;
    e.local = local;
    return {static_cast<std::uint64_t>(slot), e.gen};
  }

  /// Live entry for `h`, or nullptr with *status set to the typed error.
  Entry* find(SessionHandle h, FleetStatus* status = nullptr) {
    return const_cast<Entry*>(
        static_cast<const HandleTable*>(this)->find(h, status));
  }
  const Entry* find(SessionHandle h, FleetStatus* status = nullptr) const {
    if (h.id >= entries_.size()) {
      if (status) *status = FleetStatus::kUnknownSession;
      return nullptr;
    }
    const Entry& e = entries_[static_cast<std::size_t>(h.id)];
    if (!e.live || e.gen != h.gen) {
      if (status) *status = FleetStatus::kStaleHandle;
      return nullptr;
    }
    if (status) *status = FleetStatus::kOk;
    return &e;
  }

  /// Retire a live handle's slot into the free list; the next issue() from
  /// this slot carries gen + 1, making `h` permanently stale.
  void release(SessionHandle h) {
    Entry* e = find(h);
    if (!e) return;
    e->live = false;
    free_.push_back(static_cast<std::size_t>(h.id));
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::size_t> free_;
};

}  // namespace mvs::fleet
