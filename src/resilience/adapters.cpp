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
        CheckpointField f;
        f.mf = &c.state();
        f.geom = c.geom();
        f.name = "state";
        f.companions = c.gravity().rebalanceFabs();
        return std::vector<CheckpointField>{f};
    };
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

SupervisedDriver makeSupervisedDriver(castro::CastroAmr& a) {
    SupervisedDriver d;
    d.name = "castro-amr";
    d.estimateDt = [&a] { return a.estimateDt(); };
    d.step = [&a](Real dt) { a.step(dt); };
    d.time = [&a] { return a.time(); };
    d.stepCount = [&a] { return a.stepCount(); };
    d.resetTime = [&a](Real t, int n) { a.resetTime(t, n); };
    d.fields = [&a] {
        std::vector<CheckpointField> out;
        for (int lev = 0; lev <= a.finestLevel(); ++lev) {
            CheckpointField f;
            f.mf = &a.state(lev);
            f.geom = a.geom(lev);
            f.name = "state_lev" + std::to_string(lev);
            out.push_back(std::move(f));
        }
        return out;
    };
    d.remakeForRestore =
        [&a](const std::vector<std::vector<Box>>& boxes,
             const std::function<DistributionMapping(const BoxArray&, int)>&
                 dmBuilder) { a.remakeForRestore(boxes, dmBuilder); };
    d.postRestore = [&a] { a.finishRestore(); };
    d.retryStats = [&a] { return &a.retryStats(); };
    d.mgStats = [&a] { return a.mgTotals(); };
    return d;
}

} // namespace exa::resilience
