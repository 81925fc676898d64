/**
 * @file
 * Unit tests for the Scale-SRS pin-buffer, the only cache state a
 * System keeps.
 */

#include <gtest/gtest.h>

#include "cache/pin_buffer.hh"

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
    // 13 row-offset bits).
    PinBuffer pins(66, 8192);
    EXPECT_EQ(pins.storageBits(48), 66u * 35u);
}

} // namespace
} // namespace srs
