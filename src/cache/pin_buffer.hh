/**
 * @file
 * Scale-SRS pin-buffer (paper Section V-C).
 *
 * A small fully-associative buffer that records the base addresses
 * of the DRAM rows Scale-SRS has pinned in the last-level cache.
 * Every access is checked against it first; an access to a pinned
 * row is an LLC hit and never reaches DRAM.  Entries are cleared
 * when the refresh interval ends.
 *
 * Traces are post-LLC miss streams (the paper's USIMM methodology),
 * so the pin-buffer is the only cache state a System keeps: a pinned
 * row's LLC copy is modelled by its hit latency alone.
 */

#ifndef SRS_CACHE_PIN_BUFFER_HH
#define SRS_CACHE_PIN_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace srs
{

/** Pin-buffer entries: up to 66 rows pinned across a multi-bank
 *  attack (paper Section V-C). */
constexpr std::uint32_t kPinBufferEntries = 66;

/** CPU cycles an access to a pinned row takes: one LLC hit. */
constexpr Cycle kPinnedHitLatency = 40;

/** Fixed-capacity pin-buffer with row-granularity matching. */
class PinBuffer
{
  public:
    /**
     * @param capacity  maximum pinned rows (paper: up to 66 across a
     *                  multi-bank attack; 3 in the single-bank case)
     * @param rowBytes  DRAM row size (match granularity)
     */
    PinBuffer(std::uint32_t capacity, std::uint32_t rowBytes);

    /** @return the pinned row's base address when @p addr falls in a
     *  pinned row; nullptr otherwise. */
    const Addr *lookup(Addr addr) const;

    /** @return true when @p rowBase is already pinned. */
    bool pinned(Addr rowBase) const;

    /**
     * Pin a row.  @return its entry, or nullptr when the buffer is
     * full or the row is already pinned.
     */
    const Addr *pin(Addr rowBase);

    /** Drop all entries (refresh-interval boundary). */
    void clear();

    /** Base addresses of the pinned rows, in pin order. */
    const std::vector<Addr> &entries() const { return entries_; }

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t capacity() const { return capacity_; }

  private:
    std::uint32_t capacity_;
    std::uint32_t rowBytes_;
    std::vector<Addr> entries_;
};

} // namespace srs

#endif // SRS_CACHE_PIN_BUFFER_HH
