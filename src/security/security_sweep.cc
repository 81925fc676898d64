#include "security/security_sweep.hh"

#include <cstdio>
#include <mutex>
#include <optional>
#include <ostream>

#include "common/logging.hh"
#include "sim/sweep.hh"

namespace srs
{

const char *
securityDefenseName(SecurityDefense defense)
{
    switch (defense) {
    case SecurityDefense::Srs:
        return "srs";
    case SecurityDefense::Rrs:
        return "rrs";
    }
    fatal("unknown SecurityDefense ", static_cast<int>(defense));
}

SecurityDefense
securityDefenseFromName(const std::string &name)
{
    if (name == "srs")
        return SecurityDefense::Srs;
    if (name == "rrs")
        return SecurityDefense::Rrs;
    fatal("unknown security defense '", name, "' (want srs or rrs)");
}

std::string
SecurityCell::label() const
{
    if (defense == SecurityDefense::Srs)
        return "attack:srs";
    if (bestRounds)
        return "attack:rrs@best";
    return "attack:rrs@n=" + std::to_string(rounds);
}

std::vector<SystemAxes>
SecurityGrid::axes() const
{
    // Mirrors SweepGrid::axes() axis-for-axis so a security sweep
    // enumerates machine variants in the same order as the
    // performance sweep it accompanies.
    std::vector<SystemAxes> out;
    out.reserve(pagePolicies.size() * presets.size() * orgs.size()
                * tRcOverrides.size() * tRcdOverrides.size()
                * tRpOverrides.size() * tRefiOverrides.size()
                * tRfcOverrides.size());
    for (const PagePolicy policy : pagePolicies) {
        for (const DramPreset preset : presets) {
            for (const std::string &org : orgs) {
                for (const std::uint32_t trc : tRcOverrides) {
                    for (const std::uint32_t trcd : tRcdOverrides) {
                        for (const std::uint32_t trp : tRpOverrides) {
                            for (const std::uint32_t trefi : tRefiOverrides) {
                                for (const std::uint32_t trfc : tRfcOverrides) {
                                    SystemAxes a;
                                    a.pagePolicy = policy;
                                    a.preset = preset;
                                    dramOrgFromName(org, a);
                                    a.tRcNs = trc;
                                    a.tRcdNs = trcd;
                                    a.tRpNs = trp;
                                    a.tRefiNs = trefi;
                                    a.tRfcNs = trfc;
                                    a.validate();
                                    out.push_back(a);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

std::vector<SecurityCell>
SecurityGrid::expand() const
{
    if (defenses.empty())
        fatal("security grid has no defenses");
    if (trhs.empty())
        fatal("security grid has no Row Hammer thresholds");
    if (swapRates.empty())
        fatal("security grid has no swap rates");
    if (rounds.empty())
        fatal("security grid has no rounds axis");
    for (const std::uint32_t rate : swapRates) {
        if (rate < 2)
            fatal("security grid swap rate ", rate,
                  " is invalid (must be at least 2)");
        for (const std::uint32_t trh : trhs) {
            if (trh / rate == 0)
                fatal("security grid cell trh=", trh, " rate=", rate,
                      ": T_S = trh/rate rounds to zero");
        }
    }

    const std::vector<SystemAxes> axisList = axes();
    std::vector<SecurityCell> cells;
    for (const SystemAxes &a : axisList) {
        for (const SecurityDefense defense : defenses) {
            for (const std::uint32_t trh : trhs) {
                for (const std::uint32_t rate : swapRates) {
                    const auto append = [&](std::uint64_t n,
                                            bool best) {
                        SecurityCell cell;
                        cell.axes = a;
                        cell.defense = defense;
                        cell.trh = trh;
                        cell.swapRate = rate;
                        cell.rounds = best ? 0 : n;
                        cell.bestRounds = best;
                        cells.push_back(std::move(cell));
                    };
                    if (defense == SecurityDefense::Srs) {
                        // SRS ignores the rounds axis: latent
                        // activations do not accumulate, so there
                        // is exactly one attack per (axes, trh,
                        // rate) point.
                        append(0, false);
                        continue;
                    }
                    for (const std::uint64_t n : rounds)
                        append(n, n == kBestRounds);
                }
            }
        }
    }
    return cells;
}

SecuritySweep::SecuritySweep(std::uint64_t baseSeed, std::size_t threads)
    : seed_(baseSeed), pool_(threads)
{
}

void
SecuritySweep::setIterations(std::uint64_t iterations)
{
    iterations_ = iterations;
}

void
SecuritySweep::setEpochLoopLimit(std::uint64_t limit)
{
    epochLoopLimit_ = limit;
}

std::size_t
SecuritySweep::threadCount() const
{
    return pool_.threadCount();
}

std::uint64_t
SecuritySweep::cellSeed(std::uint64_t base, const SecurityCell &cell)
{
    const std::string key = cell.label() + ','
                            + std::to_string(cell.trh) + ','
                            + std::to_string(cell.swapRate) + ','
                            + cell.axes.field();
    return SweepRunner::cellSeed(base, key);
}

std::vector<SecurityResult>
SecuritySweep::run(const std::vector<SecurityCell> &cells)
{
    std::vector<SecurityResult> results(cells.size());
    std::vector<std::optional<StratifiedCampaign>> campaigns(
        cells.size());

    // As in SweepRunner::run: a FatalError escaping a worker would
    // std::terminate, so jobs trap it and the first message (in cell
    // order) is re-raised on the calling thread after the pool
    // drains.
    std::mutex errorMutex;
    std::size_t errorAt = cells.size();
    std::string errorMsg;
    const auto record = [&](std::size_t at, const std::string &msg) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (at < errorAt) {
            errorAt = at;
            errorMsg = msg;
        }
    };

    // One analytic job per cell; it also builds the cell's campaign.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        pool_.submit([this, &cells, &results, &campaigns, &record, i] {
            try {
                const SecurityCell &cell = cells[i];
                SecurityResult &r = results[i];
                r.cell = cell;
                r.seed = cellSeed(seed_, cell);
                const AttackParams params = attackParamsFromAxes(
                    cell.axes, cell.trh, cell.swapRate);
                const JuggernautModel model(params);
                r.analytic =
                    cell.defense == SecurityDefense::Srs
                        ? model.evaluateSrs()
                        : (cell.bestRounds
                               ? model.bestRrs()
                               : model.evaluateRrs(cell.rounds));
                if (iterations_ > 0)
                    campaigns[i].emplace(params, r.analytic, r.seed,
                                         iterations_, epochLoopLimit_);
            } catch (const FatalError &err) {
                record(i, err.what());
            }
        });
    }
    pool_.wait();
    {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!errorMsg.empty())
            throw FatalError(errorMsg);
    }

    // Then every (cell, stratum) pair is its own job, so a grid whose
    // cost sits in one cell still fills the pool.  Strata write their
    // own slots and each campaign folds them in stratum order, so the
    // bytes match a serial MonteCarloAttack at any thread count.
    for (std::optional<StratifiedCampaign> &campaign : campaigns) {
        if (!campaign)
            continue;
        for (std::size_t s = 0; s < campaign->strata(); ++s)
            pool_.submit([&campaign, s] { campaign->runStratum(s); });
    }
    pool_.wait();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (campaigns[i])
            results[i].mc = campaigns[i]->result();
    }
    return results;
}

std::vector<SecurityResult>
SecuritySweep::run(const SecurityGrid &grid)
{
    return run(grid.expand());
}

std::string
SecuritySweep::formatRow(std::size_t index, const SecurityResult &r)
{
    // Identity prefix, byte-compatible with the perf sweep's:
    // index,workload_spec,mitigation,tracker,trh,rate,axes,seed.
    // The attack label rides in the workload_spec column and the
    // tracker column is `-` (no tracker in the analytic model).
    char numbers[64];
    std::snprintf(numbers, sizeof(numbers), ",%u,%u,", r.cell.trh,
                  r.cell.swapRate);
    char seedField[32];
    std::snprintf(seedField, sizeof(seedField), "0x%016llx,",
                  static_cast<unsigned long long>(r.seed));
    std::string row = std::to_string(index);
    row += ',';
    row += r.cell.label();
    row += ',';
    row += securityDefenseName(r.cell.defense);
    row += ",-";
    row += numbers;
    row += r.cell.axes.field();
    row += ',';
    row += seedField;

    // Payload reinterpretation (see the file comment): ipc = MC mean
    // time-to-break, baseline_ipc = analytic time-to-break,
    // normalized = their ratio, swaps = k, unswap_swaps = G,
    // place_backs = N; the latency columns are zeros.  %.9g keeps
    // deep-tail times (1e14 s) and probabilities (1e-9) exact where
    // the perf columns' fixed-point %.6f would flush them.
    const double mcTime = r.mc.meanTimeSec;
    const double anTime = r.analytic.timeToBreakSec;
    const double ratio = anTime > 0.0 ? mcTime / anTime : 0.0;
    char payload[320];
    std::snprintf(
        payload, sizeof(payload),
        "%.9g,%.9g,%.9g,%llu,%llu,%llu,0,0,0,0,0,0,%llu,%llu,"
        "%.9g,%.9g,%.9g",
        mcTime, anTime, ratio,
        static_cast<unsigned long long>(r.analytic.k),
        static_cast<unsigned long long>(r.analytic.guesses),
        static_cast<unsigned long long>(r.analytic.rounds),
        static_cast<unsigned long long>(r.mc.iterations),
        static_cast<unsigned long long>(r.mc.censored),
        r.mc.pBreak, r.mc.pBreakCiLo, r.mc.pBreakCiHi);
    return row + payload;
}

void
SecuritySweep::writeCsv(std::ostream &os,
                        const std::vector<SecurityResult> &results)
{
    os << SweepRunner::csvHeader() << '\n';
    for (std::size_t i = 0; i < results.size(); ++i)
        os << formatRow(i, results[i]) << '\n';
}

} // namespace srs
