#include "security/storage_model.hh"

#include <cmath>

#include "common/mathutil.hh"
#include "mitigation/mitigation.hh"

namespace srs
{

StorageModel::StorageModel(const StorageParams &params)
    : params_(params)
{
    checkSwapThreshold(params_.trh, params_.rrsSwapRate);
    checkSwapThreshold(params_.trh, params_.scaleSrsSwapRate);
}

std::uint64_t
StorageModel::ritEntries(std::uint32_t swapRate,
                         std::uint32_t epochsRetained) const
{
    const std::uint32_t ts = params_.trh / swapRate;
    const std::uint64_t swapsPerEpoch =
        ceilDiv(params_.actMaxPerEpoch, ts);
    // Two directions per swap (tuple / real+mirrored).
    const double entries = 2.0 *
        static_cast<double>(swapsPerEpoch) * epochsRetained *
        params_.catOverProvision;
    return static_cast<std::uint64_t>(std::ceil(entries));
}

std::uint64_t
StorageModel::ritBytesRrs() const
{
    // 40-bit entries: two row ids + valid + lock + spare.
    const std::uint64_t entryBits = 2ULL * params_.rowBits + 6;
    return ritEntries(params_.rrsSwapRate, 2) * entryBits / 8;
}

std::uint64_t
StorageModel::ritBytesScaleSrs() const
{
    const std::uint64_t entryBits = 2ULL * params_.rowBits + 6;
    return ritEntries(params_.scaleSrsSwapRate, 1) * entryBits / 8;
}

std::uint64_t
StorageModel::ritBytesScaleSrsSingleTable() const
{
    // Section VIII-4: one table with an original/reverse tag bit
    // halves the entry count at the cost of one bit per entry.
    const std::uint64_t entryBits = 2ULL * params_.rowBits + 7;
    return ritEntries(params_.scaleSrsSwapRate, 1) / 2 * entryBits / 8;
}

std::vector<StorageLine>
StorageModel::breakdown() const
{
    const std::uint64_t pinBufferEntries = params_.trh >= 4800 ? 66 : 96;
    std::vector<StorageLine> lines;
    lines.push_back({"RIT", ritBytesRrs(), ritBytesScaleSrs()});
    lines.push_back({"Swap-Buffer", params_.swapBufferBytes,
                     params_.swapBufferBytes});
    lines.push_back({"Place-Back Buffer", 0,
                     params_.placeBackBufferBytes});
    lines.push_back({"Epoch Register", 0,
                     (params_.epochRegisterBits + 7) / 8});
    lines.push_back({"Pin Buffer", 0,
                     pinBufferEntries * params_.pinEntryBits / 8});
    return lines;
}

std::uint64_t
StorageModel::totalRrsBytes() const
{
    std::uint64_t total = 0;
    for (const StorageLine &l : breakdown())
        total += l.rrsBytes;
    return total;
}

std::uint64_t
StorageModel::totalScaleSrsBytes() const
{
    std::uint64_t total = 0;
    for (const StorageLine &l : breakdown())
        total += l.scaleSrsBytes;
    return total;
}

double
StorageModel::savingsRatio() const
{
    return static_cast<double>(totalRrsBytes()) /
           static_cast<double>(totalScaleSrsBytes());
}

} // namespace srs
