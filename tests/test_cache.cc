/**
 * @file
 * Unit tests for the Scale-SRS pin-buffer, the only cache state a
 * System keeps.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cache/pin_buffer.hh"
#include "common/mathutil.hh"
#include "security/storage_model.hh"

namespace srs
{
namespace
{

TEST(PinBuffer, PinAndLookup)
{
    PinBuffer pins(4, 8192);
    EXPECT_EQ(pins.lookup(0x2000), nullptr);
    ASSERT_NE(pins.pin(0x2000), nullptr);
    EXPECT_NE(pins.lookup(0x2000), nullptr);
    EXPECT_NE(pins.lookup(0x2000 + 8191), nullptr); // same row
    EXPECT_EQ(pins.lookup(0x4000), nullptr);
}

TEST(PinBuffer, CapacityEnforced)
{
    PinBuffer pins(2, 8192);
    EXPECT_NE(pins.pin(0x0000), nullptr);
    EXPECT_NE(pins.pin(0x2000), nullptr);
    EXPECT_EQ(pins.pin(0x4000), nullptr);
    EXPECT_EQ(pins.size(), 2u);
}

TEST(PinBuffer, DuplicateRejected)
{
    PinBuffer pins(4, 8192);
    EXPECT_NE(pins.pin(0x2000), nullptr);
    EXPECT_EQ(pins.pin(0x2000), nullptr);
    EXPECT_EQ(pins.size(), 1u);
}

TEST(PinBuffer, ClearEmpties)
{
    PinBuffer pins(4, 8192);
    pins.pin(0x2000);
    pins.clear();
    EXPECT_EQ(pins.size(), 0u);
    EXPECT_EQ(pins.lookup(0x2000), nullptr);
}

TEST(PinBuffer, StorageBitsMatchPaper)
{
    // Paper Section V-C: 66 entries x 35 bits (48-bit address minus
    // 13 row-offset bits).  The buffer does not price itself: at
    // T_RH 4800 StorageModel's Pin Buffer line prices exactly the
    // kPinBufferEntries that System simulates.
    EXPECT_EQ(kPinBufferEntries, 66u);
    StorageParams p;
    p.trh = 4800;
    EXPECT_EQ(p.pinEntryBits, 48u - floorLog2(8192));
    const auto lines = StorageModel(p).breakdown();
    const auto pin = std::find_if(
        lines.begin(), lines.end(),
        [](const StorageLine &l) { return l.structure == "Pin Buffer"; });
    ASSERT_NE(pin, lines.end());
    EXPECT_EQ(pin->scaleSrsBytes, kPinBufferEntries * 35u / 8);
}

} // namespace
} // namespace srs
