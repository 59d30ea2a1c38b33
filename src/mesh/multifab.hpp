#pragma once

#include "comm/halo_handle.hpp"
#include "core/arena.hpp"
#include "mesh/box_array.hpp"
#include "mesh/distribution.hpp"
#include "mesh/fab.hpp"
#include "mesh/geometry.hpp"

#include <memory>
#include <vector>

namespace exa {

struct CopyPlan;
struct CopyItem;
struct PartitionPlan;

// The central data structure of the framework: fluid state at one level of
// refinement, distributed over the boxes of a BoxArray (each box owned by
// one simulated rank per the DistributionMapping), with `ngrow` ghost
// zones around every box.
//
// In a distributed build each rank would hold only its own Fabs; here one
// process holds them all and the DistributionMapping drives the *message
// accounting* (MessageRecords on the event stream) for every ghost
// exchange and parallel copy, from exactly the intersections that move
// the data.
class MultiFab {
public:
    MultiFab() = default;
    MultiFab(const BoxArray& ba, const DistributionMapping& dm, int ncomp, int ngrow,
             Arena* arena = nullptr);

    void define(const BoxArray& ba, const DistributionMapping& dm, int ncomp, int ngrow,
                Arena* arena = nullptr);
    bool isDefined() const { return !m_fabs.empty(); }
    void clear();

    const BoxArray& boxArray() const { return m_ba; }
    const DistributionMapping& distributionMap() const { return m_dm; }
    int nComp() const { return m_ncomp; }
    int nGrow() const { return m_ngrow; }
    std::size_t size() const { return m_fabs.size(); }

    // The valid (ghost-free) box of fab i and its grown box.
    const Box& box(int i) const { return m_ba[i]; }
    Box fabbox(int i) const { return grow(m_ba[i], m_ngrow); }

    FArrayBox& fab(int i) { return m_fabs[i]; }
    const FArrayBox& fab(int i) const { return m_fabs[i]; }
    Array4<Real> array(int i) { return m_fabs[i].array(); }
    Array4<const Real> const_array(int i) const { return m_fabs[i].const_array(); }

    void setVal(Real v);
    void setVal(Real v, int comp, int ncomp, int ngrow = 0);

    // Fill every ghost zone that overlaps the valid region of any fab in
    // this MultiFab, honoring periodic images. This is the halo exchange:
    // each box-to-box copy whose source and destination live on different
    // ranks is published as one MessageRecord. The intersection set
    // is memoized in the process-wide CopierCache, keyed on the BoxArray /
    // DistributionMapping ids, so repeated exchanges on a stable layout
    // skip the O(nfabs^2) pattern rescan.
    //
    // Canonical comm signatures (shared with ParallelCopy and
    // fillPatchTwoLevels): component selection first in (scomp, dcomp,
    // ncomp) order, then ghost width, then Periodicity last, defaulting to
    // nonPeriodic(). FillBoundary exchanges in place, so only (scomp,
    // ncomp) applies.
    void FillBoundary(int scomp, int ncomp,
                      const Periodicity& period = Periodicity::nonPeriodic());
    // Convenience: exchange every component, non-periodic.
    void FillBoundary() { FillBoundary(0, m_ncomp); }

    // Copy component data from src (any BoxArray) wherever src valid
    // regions intersect our valid+dst_ng regions, with periodic images.
    // The copy plan is memoized in the CopierCache like FillBoundary's.
    void ParallelCopy(const MultiFab& src, int scomp, int dcomp, int ncomp,
                      int dst_ng = 0,
                      const Periodicity& period = Periodicity::nonPeriodic());
    // Convenience: copy every component into valid regions only.
    void ParallelCopy(const MultiFab& src,
                      const Periodicity& period = Periodicity::nonPeriodic());

    // Split-phase forms: post the exchange (stage every source region into
    // pack buffers) and return immediately; the returned handle's
    // finish() delivers the ghosts and publishes the same accounting
    // events as the blocking call. Between post and finish this
    // MultiFab's valid zones may be read or overwritten freely (the
    // payload was captured at post time), but the in-flight destination
    // zones may not be read: under Backend::Debug they hold quiet NaN
    // until finish().
    comm::HaloHandle FillBoundary_nowait(
        int scomp, int ncomp,
        const Periodicity& period = Periodicity::nonPeriodic());
    comm::HaloHandle FillBoundary_nowait() {
        return FillBoundary_nowait(0, m_ncomp);
    }
    // The overlap sites' form: posts when `part` (this BoxArray's
    // interiorPartition) overlaps any fab; when every fab is whole there
    // is nothing to overlap, so the exchange runs eagerly and the
    // returned handle is empty.
    comm::HaloHandle FillBoundary_nowait(const PartitionPlan& part, int scomp, int ncomp,
                                         const Periodicity& period);
    comm::HaloHandle ParallelCopy_nowait(
        const MultiFab& src, int scomp, int dcomp, int ncomp, int dst_ng = 0,
        const Periodicity& period = Periodicity::nonPeriodic());

    // Live-state migration for the load balancer: reassign every box to
    // its owner under `new_dm` (same BoxArray, new rank table). The full
    // grown-box payload travels with its box, so contents — ghosts
    // included — are bit-identical before and after. Off-rank moves are
    // accounted through the cached ParallelCopy plan exactly like any
    // other exchange: one MessageRecord per migrated box (valid-region
    // bytes, tag "rebalance"; ghosts are refilled by the next
    // FillBoundary in a distributed run, so they are not priced here).
    // The mapping id changes with the new mapping, so CopierCache plans
    // keyed on the old id lapse naturally. No-op when the rank tables
    // are identical.
    struct RedistributeStats {
        std::int64_t boxes_moved = 0; // boxes whose owning rank changed
        std::int64_t bytes = 0;       // off-rank valid-region payload
    };
    RedistributeStats Redistribute(const DistributionMapping& new_dm,
                                   const char* tag = "rebalance");

    // Global reductions over valid regions.
    Real sum(int comp = 0) const;
    Real min(int comp = 0) const;
    Real max(int comp = 0) const;
    Real norminf(int comp = 0) const;
    Real norm2(int comp = 0) const;

    // this += a * x over valid regions (matching BoxArrays required).
    void saxpy(Real a, const MultiFab& x, int scomp, int dcomp, int ncomp);
    void plus(Real v, int comp, int ncomp);
    void mult(Real v, int comp, int ncomp);

    // dst = src (matching BoxArrays), valid + ng ghost zones.
    static void Copy(MultiFab& dst, const MultiFab& src, int scomp, int dcomp,
                     int ncomp, int ng = 0);
    // dst = a*x + b*y over valid regions (matching BoxArrays).
    static void LinComb(MultiFab& dst, Real a, const MultiFab& x, Real b,
                        const MultiFab& y, int comp, int ncomp);

private:
    friend class comm::HaloHandle;

    // Execute a cached copy plan against `src` (which may be *this) in
    // one fused fab_copy launch, publishing each off-rank item as a
    // MessageRecord under `tag`.
    void copyFromPlan(const CopyPlan& plan, const MultiFab& src, int scomp,
                      int dcomp, int ncomp, const char* tag);

    // The two halves of a delivery's fault and accounting work, shared
    // between copyFromPlan and HaloHandle::finish() so the two report
    // identical accounting and consume identical fault-schedule slots.
    // dropDecisions runs the CommMessageDrop site once per off-rank item,
    // in item order, before the launch; it returns one flag per item, or
    // nothing (and allocates nothing) while no fault site is armed.
    // deliverTails then runs, in item order after the launch, each
    // delivered item's HaloPayloadCorrupt site and MessageRecord.
    static std::vector<char> dropDecisions(const CopyPlan& plan);
    void deliverTails(const CopyPlan& plan, const std::vector<char>& dropped, int dcomp,
                      int ncomp, const char* tag);
    // The post half of both _nowait forms: stage `plan`'s payload from
    // `src` and return the pending handle.
    comm::HaloHandle post(std::shared_ptr<const CopyPlan> plan, const MultiFab& src,
                          int scomp, int dcomp, int ncomp, const char* tag);

    BoxArray m_ba;
    DistributionMapping m_dm;
    int m_ncomp = 0;
    int m_ngrow = 0;
    std::vector<FArrayBox> m_fabs;
};

} // namespace exa
