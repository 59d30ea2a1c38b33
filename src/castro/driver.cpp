#include "castro/driver.hpp"

namespace exa {

BurnGridStats Driver::step(Real dt) {
    BurnGridStats burn;
    if (!m_guard.options().enabled) {
        burn = advance(dt, 1);
    } else {
        std::vector<MultiFab*> state;
        for (const CheckpointField& f : checkpointFields()) state.push_back(f.mf);
        m_guard.advance(
            dt, state,
            [&](Real sub_dt, int nsub) {
                burn = {}; // an attempt that throws leaves no stats behind
                burn = advance(sub_dt, nsub);
            },
            [&] { return validate(burn); },
            [&](const StateSnapshot& snap, bool advance_threw) {
                if (!advance_threw) repair(snap);
            });
    }
    // One step, however many substeps it took.
    m_time += dt;
    ++m_nstep;
    postStep();
    return burn;
}

} // namespace exa
