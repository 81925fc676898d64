/**
 * @file
 * Collision Avoidance Table (CAT) — the MIRAGE-style bucketed hash
 * structure the RRS artifact uses to build both the Misra-Gries
 * tracker and the Row Indirection Table (paper Section IV-B).
 *
 * Keys hash into power-of-two buckets of fixed associativity with an
 * over-provisioned entry budget so the occupancy per bucket stays low
 * and conflict-based attacks cannot force deterministic evictions.
 * Entries carry a lock bit: locked entries belong to the current
 * epoch and are never displaced; inserting into a full bucket evicts
 * a random *unlocked* (previous-epoch) entry and reports it so the
 * owner can restore the displaced row.
 */

#ifndef SRS_ROWSWAP_CAT_HH
#define SRS_ROWSWAP_CAT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace srs
{

/** CAT sizing: an over-provisioned entry budget in power-of-two buckets. */
struct CatSizing
{
    std::uint64_t targetEntries = 0;  ///< worst-case live entries
    double overProvision = 1.5;       ///< capacity multiplier
    std::uint32_t ways = 8;           ///< bucket associativity

    /** Buckets: next power of two covering the provisioned budget. */
    std::uint64_t numBuckets() const;
    /** Total entry slots = buckets * ways. */
    std::uint64_t totalSlots() const { return numBuckets() * ways; }
};

/** Fixed-capacity key/value CAT over RowId keys. */
class Cat
{
  public:
    struct Entry
    {
        RowId key = kInvalidRow;
        RowId value = kInvalidRow;
        bool valid = false;
        bool locked = false;
    };

    Cat(const CatSizing &sizing, std::uint64_t seed);

    /** Fired when an unlocked entry is displaced to make room. */
    using EvictHandler = std::function<void(const Entry &)>;
    void setEvictHandler(EvictHandler handler)
    {
        onEvict_ = std::move(handler);
    }

    /**
     * Insert (or update) key -> value, locking the entry.
     * @return false only when the bucket is full of locked entries
     *         (a provisioning failure the caller must count)
     */
    bool insert(RowId key, RowId value);

    /** @return mapped value when present. */
    std::optional<RowId> lookup(RowId key) const;

    /** Remove a key. @return true when it existed. */
    bool erase(RowId key);

    /** Unlock every entry (epoch boundary). */
    void unlockAll();

    /** Live entries. */
    std::uint64_t size() const { return live_; }
    std::uint64_t capacity() const { return slots_.size(); }
    std::uint32_t ways() const { return ways_; }

    /** Walk all valid entries. */
    void forEach(const std::function<void(const Entry &)> &fn) const;

  private:
    std::uint64_t bucketOf(RowId key) const;
    std::uint64_t altBucketOf(RowId key) const;
    Entry *find(RowId key);
    const Entry *find(RowId key) const;

    std::uint64_t numBuckets_;
    std::uint32_t ways_;
    std::vector<Entry> slots_;
    std::uint64_t live_ = 0;
    std::uint64_t hashSeed_;
    mutable Rng rng_;
    EvictHandler onEvict_;
};

} // namespace srs

#endif // SRS_ROWSWAP_CAT_HH
