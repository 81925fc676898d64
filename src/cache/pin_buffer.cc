#include "cache/pin_buffer.hh"

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

PinBuffer::PinBuffer(std::uint32_t capacity, std::uint32_t rowBytes)
    : capacity_(capacity), rowBytes_(rowBytes)
{
    if (!isPowerOfTwo(rowBytes_))
        fatal("pin-buffer row size must be a power of two");
    entries_.reserve(capacity_);
}

const Addr *
PinBuffer::lookup(Addr addr) const
{
    const Addr base = addr & ~static_cast<Addr>(rowBytes_ - 1);
    for (const Addr &rowBase : entries_) {
        if (rowBase == base)
            return &rowBase;
    }
    return nullptr;
}

bool
PinBuffer::pinned(Addr rowBase) const
{
    return lookup(rowBase) != nullptr;
}

const Addr *
PinBuffer::pin(Addr rowBase)
{
    SRS_ASSERT((rowBase & (rowBytes_ - 1)) == 0,
               "pin target not row-aligned");
    if (entries_.size() >= capacity_ || pinned(rowBase))
        return nullptr;
    entries_.push_back(rowBase);
    return &entries_.back();
}

void
PinBuffer::clear()
{
    entries_.clear();
}

} // namespace srs
