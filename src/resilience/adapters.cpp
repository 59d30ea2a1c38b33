#include "resilience/adapters.hpp"

namespace exa::resilience {

SupervisedDriver makeSupervisedDriver(castro::Castro& c) {
    SupervisedDriver d;
    d.name = "castro";
    d.estimateDt = [&c] { return c.estimateDt(); };
    d.step = [&c](Real dt) { c.step(dt); };
    d.time = [&c] { return c.time(); };
    d.stepCount = [&c] { return c.stepCount(); };
    d.resetTime = [&c](Real t, int n) { c.resetTime(t, n); };
    d.fields = [&c] {
        std::vector<CheckpointField> out;
        for (int lev = 0; lev <= c.finestLevel(); ++lev) {
            CheckpointField f;
            f.mf = &c.state(lev);
            f.geom = c.geom(lev);
            f.name = "state_lev" + std::to_string(lev);
            out.push_back(std::move(f));
        }
        return out;
    };
    d.remakeForRestore =
        [&c](const std::vector<std::vector<Box>>& boxes,
             const std::function<DistributionMapping(const BoxArray&, int)>&
                 dmBuilder) { c.remakeForRestore(boxes, dmBuilder); };
    d.postRestore = [&c] { c.finishRestore(); };
    d.retryStats = [&c] { return &c.retryStats(); };
    d.mgStats = [&c] { return c.gravity().mgTotals(); };
    return d;
}

SupervisedDriver makeSupervisedDriver(maestro::Maestro& m) {
    SupervisedDriver d;
    d.name = "maestro";
    d.estimateDt = [&m] { return m.estimateDt(); };
    d.step = [&m](Real dt) { m.step(dt); };
    d.time = [&m] { return m.time(); };
    d.stepCount = [&m] { return m.stepCount(); };
    d.resetTime = [&m](Real t, int n) { m.resetTime(t, n); };
    d.fields = [&m] {
        std::vector<CheckpointField> out(3);
        out[0].mf = &m.state();
        out[0].name = "state";
        out[1].mf = &m.phi();
        out[1].name = "phi";
        out[2].mf = &m.divu();
        out[2].name = "divu";
        for (CheckpointField& f : out) f.geom = m.geom();
        return out;
    };
    d.retryStats = [&m] { return &m.retryStats(); };
    return d;
}

} // namespace exa::resilience
