/**
 * @file
 * On-chip storage model (paper Table IV) and the Section VIII-4
 * single-RIT optimization.
 *
 * RIT sizing rule: each swap creates mappings in both directions
 * (RRS: tuple pairs; SRS: real + mirrored halves).  RRS retains
 * entries for two epochs (current + previous, cleaned on demand),
 * while Scale-SRS's paced place-back frees the previous epoch's
 * entries continuously, so only one epoch's worth must be
 * provisioned.  Entries are 40 bits (two 17-bit row ids, valid,
 * lock, spare) and the table is over-provisioned by 5% against CAT
 * bucket conflicts.
 *
 * This is the one SRAM price of RRS, SRS and Scale-SRS: their simulated
 * structures (mitigations, trackers, pin buffer) do not price
 * themselves.  Only the related-work defenses (BlockHammer, AQUA)
 * report their own.
 */

#ifndef SRS_SECURITY_STORAGE_MODEL_HH
#define SRS_SECURITY_STORAGE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace srs
{

/** Inputs to the storage computation. */
struct StorageParams
{
    std::uint32_t trh = 1200;
    std::uint32_t rrsSwapRate = 6;
    std::uint32_t scaleSrsSwapRate = 3;
    std::uint64_t actMaxPerEpoch = 1360000;
    std::uint32_t rowBits = 17;
    double catOverProvision = 1.05;
    std::uint64_t swapBufferBytes = 1024;
    std::uint64_t placeBackBufferBytes = 8 * 1024;
    std::uint32_t epochRegisterBits = 19;
    std::uint32_t pinEntryBits = 35;
};

/** One line of the Table IV breakdown. */
struct StorageLine
{
    std::string structure;
    std::uint64_t rrsBytes = 0;
    std::uint64_t scaleSrsBytes = 0;
};

/** Per-bank storage accounting for RRS vs Scale-SRS. */
class StorageModel
{
  public:
    /** fatal() naming the pair unless both swap rates leave T_S >= 1. */
    explicit StorageModel(const StorageParams &params);

    /** RIT bytes per bank for RRS (tuples, two epochs retained). */
    std::uint64_t ritBytesRrs() const;

    /** RIT bytes per bank for Scale-SRS (one epoch retained). */
    std::uint64_t ritBytesScaleSrs() const;

    /** Section VIII-4: fold the mirrored half into a direction bit. */
    std::uint64_t ritBytesScaleSrsSingleTable() const;

    /**
     * Full Table IV breakdown.  The pin buffer holds 66 entries at
     * T_RH >= 4800 and 96 below (Section V-C; 35-bit entries, the
     * paper's 289 B and 420 B).
     */
    std::vector<StorageLine> breakdown() const;

    std::uint64_t totalRrsBytes() const;
    std::uint64_t totalScaleSrsBytes() const;

    /** The headline ratio (paper: ~3.3x at T_RH = 1200). */
    double savingsRatio() const;

    const StorageParams &params() const { return params_; }

  private:
    std::uint64_t ritEntries(std::uint32_t swapRate,
                             std::uint32_t epochsRetained) const;

    StorageParams params_;
};

} // namespace srs

#endif // SRS_SECURITY_STORAGE_MODEL_HH
