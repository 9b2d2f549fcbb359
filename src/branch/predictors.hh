/**
 * @file
 * Branch prediction: 2-bit bimodal, gshare, hybrid (meta-chooser),
 * and a set-associative BTB, matching the Table 1 configuration
 * (hybrid 8192-entry gshare / 2048-entry bimodal, 8192-entry meta
 * table, 2048-entry 4-way BTB). The synthetic streams have no calls
 * or returns, so the model has no return address stack.
 *
 * All predictors hold their tables by value so they are captured by
 * whole-machine checkpoints.
 */

#ifndef SMTHILL_BRANCH_PREDICTORS_HH
#define SMTHILL_BRANCH_PREDICTORS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smthill
{

/** Table of 2-bit saturating counters indexed by hashed PC. */
class BimodalPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 2048);

    /** @return predicted direction for the branch at @p pc. */
    bool predict(Addr pc) const;

    /** Train the entry for @p pc with the resolved direction. */
    void update(Addr pc, bool taken);

  private:
    std::size_t index(Addr pc) const { return (pc >> 2) & mask; }

    std::vector<std::uint8_t> table;
    std::size_t mask;
};

/**
 * Gshare: global history XOR PC indexes a table of 2-bit counters.
 * The global history register is speculatively updated at predict
 * time and repaired on a mispredict, which is the behavior the
 * pipeline needs when it stops fetching past a mispredicted branch.
 */
class GsharePredictor
{
  public:
    /**
     * @param entries table size; must be a power of two
     * @param history_bits global history length
     */
    explicit GsharePredictor(std::size_t entries = 8192,
                             int history_bits = 13);

    /** @return predicted direction; speculatively shifts history. */
    bool predictAndShift(Addr pc);

    /** @return predicted direction without touching history. */
    bool peek(Addr pc) const;

    /** Train the indexed entry with the resolved direction. */
    void update(Addr pc, std::uint64_t history_at_predict, bool taken);

    /** Restore history after a squash (history as of the branch). */
    void repairHistory(std::uint64_t history_at_predict, bool taken);

    /** @return the current global history register value. */
    std::uint64_t history() const { return ghr; }

  private:
    std::size_t index(Addr pc, std::uint64_t hist) const;

    std::vector<std::uint8_t> table;
    std::size_t mask;
    std::uint64_t ghr = 0;
    std::uint64_t histMask;
};

/**
 * Hybrid predictor: a meta table of 2-bit chooser counters selects
 * between the bimodal and gshare components per branch.
 */
class HybridPredictor
{
  public:
    /** What the predictor decided, kept for the resolution update. */
    struct Lookup
    {
        bool prediction = false;
        bool bimodalSaid = false;
        bool gshareSaid = false;
        std::uint64_t historyAtPredict = 0;
    };

    HybridPredictor(std::size_t meta_entries = 8192,
                    std::size_t gshare_entries = 8192,
                    std::size_t bimodal_entries = 2048);

    /** Predict the branch at @p pc; shifts gshare history. */
    Lookup predict(Addr pc);

    /** Resolve: train all components and the chooser. */
    void update(Addr pc, const Lookup &lookup, bool taken);

    /** Repair gshare history after the frontend squashes. */
    void repairHistory(const Lookup &lookup, bool taken);

  private:
    std::size_t metaIndex(Addr pc) const { return (pc >> 2) & metaMask; }

    BimodalPredictor bimodal;
    GsharePredictor gshare;
    std::vector<std::uint8_t> meta;
    std::size_t metaMask;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    /**
     * @param entries total entries; must be a multiple of @p ways
     * @param ways set associativity
     */
    explicit Btb(std::size_t entries = 2048, std::size_t ways = 4);

    /**
     * @param pc branch address
     * @param[out] target filled with the predicted target on a hit
     * @return true on a BTB hit
     */
    bool lookup(Addr pc, Addr &target);

    /** Install or refresh the mapping pc -> target. */
    void update(Addr pc, Addr target);

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr target = 0;
        std::uint32_t lru = 0;
        bool valid = false;
    };

    std::size_t setIndex(Addr pc) const { return (pc >> 2) & setMask; }

    std::vector<Entry> sets;  ///< sets * ways entries, row-major
    std::size_t numSets;
    std::size_t numWays;
    std::size_t setMask;
    std::uint32_t lruClock = 0;
};

} // namespace smthill

#endif // SMTHILL_BRANCH_PREDICTORS_HH
