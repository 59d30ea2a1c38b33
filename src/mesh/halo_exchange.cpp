// Split-phase halo exchange: the implementation behind
// comm::HaloHandle and the MultiFab _nowait entry points.
//
// Post stages every plan item's source region into a pack buffer (the
// payload is captured before the caller overwrites anything, exactly as
// an MPI_Isend would have serialized it) in one fused launch; finish()
// unpacks the buffers in one fused launch in exact plan-item order and
// runs the per-item fault decisions and delivery tails (fault injection
// + MessageRecords published on the event stream) through the same
// MultiFab helpers the eager path uses, so the two paths are
// bit-identical in data, accounting, and fault-schedule consumption.
//
// This file lives in exastro_mesh (not exastro_comm) because the comm
// library links against the mesh library, not the other way round; the
// handle's declaration stays in src/comm/halo_handle.hpp.

#include "comm/halo_handle.hpp"

#include "core/debug.hpp"
#include "core/events.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/parallel_for.hpp"
#include "mesh/copier_cache.hpp"
#include "mesh/multifab.hpp"

#include <cassert>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace exa {
namespace comm {

struct HaloHandle::Impl {
    std::shared_ptr<const CopyPlan> plan;
    MultiFab* dst = nullptr;
    int dcomp = 0;
    int ncomp = 0;
    const char* tag = "";
    // One pack buffer per plan item, filled at post time.
    std::vector<FArrayBox> staged;
    bool finished = false;

    std::int64_t offrankBytes() const {
        return plan->offrank_zones * ncomp * static_cast<std::int64_t>(sizeof(Real));
    }
};

HaloHandle::HaloHandle() = default;

HaloHandle::HaloHandle(std::unique_ptr<Impl> impl) : m_impl(std::move(impl)) {}

HaloHandle::HaloHandle(HaloHandle&&) noexcept = default;
HaloHandle& HaloHandle::operator=(HaloHandle&&) noexcept = default;

bool HaloHandle::pending() const { return m_impl && !m_impl->finished; }

void HaloHandle::finish() {
    if (!m_impl) return; // empty or eagerly-completed handle: nothing staged
    Impl& im = *m_impl;
    if (im.finished) {
        if (ExecConfig::backend() == Backend::Debug) {
            debug::reportViolation("HaloHandle", "halo-double-finish",
                                   std::string("finish() called twice for tag '") +
                                       im.tag + "'");
        }
        return;
    }
    // Same dropped-message semantics and tails as the eager copyFromPlan
    // path, around one fused unpack launch.
    const CopyPlan& plan = *im.plan;
    const std::vector<char> dropped = MultiFab::dropDecisions(plan);
    ParallelFor(FArrayBox::copyKernel(), plan.items.size(), im.ncomp, [&](std::size_t t) {
        const CopyItem& item = plan.items[t];
        const bool drop = !dropped.empty() && dropped[t];
        return std::pair{drop ? Box{} : item.dst_box,
                         im.dst->fab(item.dst_fab).copyBody(im.staged[t], item.src_box, 0,
                                                            item.dst_box, im.dcomp)};
    });
    im.dst->deliverTails(plan, dropped, im.dcomp, im.ncomp, im.tag);
    im.staged.clear();
    im.finished = true;
    if (events::active()) {
        events::publish(HaloEvent{HaloPhase::Finished, im.tag,
                                  static_cast<std::int64_t>(im.plan->items.size()),
                                  im.offrankBytes()});
    }
}

HaloHandle::~HaloHandle() {
    if (m_impl && !m_impl->finished) {
        // RAII safety net: the exchange still completes, but letting a
        // handle die pending forfeits the overlap the caller posted it
        // for — under the verification backend that is a diagnosed
        // contract violation, like a forgotten cudaStreamSynchronize.
        // A handle unwound by an in-flight exception is the safety net
        // doing its job (the step will be rolled back or rethrown), not
        // a forgotten finish, so only the normal path is flagged.
        if (ExecConfig::backend() == Backend::Debug &&
            std::uncaught_exceptions() == 0) {
            debug::reportViolation("HaloHandle", "halo-unfinished",
                                   std::string("handle destroyed before finish() "
                                               "for tag '") +
                                       m_impl->tag + "'");
        }
        finish();
    }
}

} // namespace comm

namespace {

// Stage every plan item's source region into its own pack buffer, all
// of them in one fused launch.
void packItems(std::vector<FArrayBox>& staged, const CopyPlan& plan,
               const MultiFab& src, int scomp, int ncomp) {
    staged.reserve(plan.items.size());
    for (const CopyItem& item : plan.items) staged.emplace_back(item.src_box, ncomp);
    ParallelFor(FArrayBox::copyKernel(), plan.items.size(), ncomp, [&](std::size_t t) {
        const CopyItem& item = plan.items[t];
        return std::pair{item.src_box, staged[t].copyBody(src.fab(item.src_fab), item.src_box,
                                                          scomp, item.src_box, 0)};
    });
}

// Under Backend::Debug every in-flight destination zone reads quiet NaN
// until finish() delivers it, so a read of an in-flight zone shows up as
// a Debug-vs-Serial bit difference even when the stale value happens to
// equal the fresh one. A plain host write, not a launch, like the
// HaloPayloadCorrupt site. Skipped while CommMessageDrop is armed: a
// dropped item keeps its stale values, as on every other backend.
void poisonInFlight(MultiFab& dst, const CopyPlan& plan, int dcomp, int ncomp) {
    if (ExecConfig::backend() != Backend::Debug ||
        fault::armed(fault::Site::CommMessageDrop)) {
        return;
    }
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    for (const CopyItem& item : plan.items) {
        auto a = dst.array(item.dst_fab);
        const Box& b = item.dst_box;
        for (int n = dcomp; n < dcomp + ncomp; ++n)
            for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
                for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                    for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i) a(i, j, k, n) = nan;
    }
}

} // namespace

comm::HaloHandle MultiFab::post(std::shared_ptr<const CopyPlan> plan, const MultiFab& src,
                                int scomp, int dcomp, int ncomp, const char* tag) {
    auto impl = std::make_unique<comm::HaloHandle::Impl>();
    impl->plan = std::move(plan);
    impl->dst = this;
    impl->dcomp = dcomp;
    impl->ncomp = ncomp;
    impl->tag = tag;
    packItems(impl->staged, *impl->plan, src, scomp, ncomp);
    poisonInFlight(*this, *impl->plan, dcomp, ncomp);
    if (events::active()) {
        events::publish(HaloEvent{HaloPhase::Posted, impl->tag,
                                  static_cast<std::int64_t>(impl->plan->items.size()),
                                  impl->offrankBytes()});
    }
    return comm::HaloHandle(std::move(impl));
}

comm::HaloHandle MultiFab::FillBoundary_nowait(int scomp, int ncomp,
                                               const Periodicity& period) {
    assert(scomp + ncomp <= m_ncomp);
    if (m_fabs.empty()) return comm::HaloHandle{};
    // FillBoundary exchanges in place: dcomp == scomp.
    return post(CopierCache::instance().fillBoundary(m_ba, m_dm, m_ngrow, period), *this,
                scomp, scomp, ncomp, "fillboundary");
}

comm::HaloHandle MultiFab::FillBoundary_nowait(const PartitionPlan& part, int scomp,
                                               int ncomp, const Periodicity& period) {
    assert(part.fabs.size() == m_fabs.size());
    if (part.overlaps) return FillBoundary_nowait(scomp, ncomp, period);
    FillBoundary(scomp, ncomp, period);
    return comm::HaloHandle{};
}

comm::HaloHandle MultiFab::ParallelCopy_nowait(const MultiFab& src, int scomp,
                                               int dcomp, int ncomp, int dst_ng,
                                               const Periodicity& period) {
    assert(dst_ng <= m_ngrow);
    if (m_fabs.empty() || src.m_fabs.empty()) return comm::HaloHandle{};
    return post(CopierCache::instance().parallelCopy(m_ba, m_dm, src.m_ba, src.m_dm,
                                                     dst_ng, period),
                src, scomp, dcomp, ncomp, "parallelcopy");
}

} // namespace exa
