#pragma once

#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"
#include "mesh/tagging.hpp"

#include <vector>

namespace exa {

// Parameters controlling the AMR hierarchy (mirrors amrex::AmrInfo).
struct AmrInfo {
    int max_level = 0;        // finest allowed level
    int ref_ratio = 2;        // refinement ratio between adjacent levels
    int blocking_factor = 8;  // box side quantum on each level
    int max_grid_size = 32;   // max box side on each level
    int n_error_buf = 1;      // zones to buffer around tagged zones
    // Proper-nesting buffer: fine grids must stay this many parent-level
    // zones inside the parent union (where the parent does not cover its
    // whole domain), so the zone outside every coarse/fine face exists on
    // the parent — refluxing corrects it, ghost interpolation reads it.
    int n_proper = 1;
    int nranks = 1;           // simulated ranks for distribution mappings
    DistributionMapping::Strategy strategy = DistributionMapping::Strategy::Sfc;
};

// The AMR driver skeleton, mirroring amrex::AmrCore: owns the geometry,
// BoxArray, and DistributionMapping of every level and runs the regrid
// cycle (ErrorEst -> cluster -> proper nesting -> RemakeLevel). Physics
// codes (Castro-mini, MAESTRO-mini) subclass it and manage their own state
// MultiFabs in the virtual hooks.
class AmrCore {
public:
    AmrCore(const Geometry& level0_geom, const AmrInfo& info);
    virtual ~AmrCore() = default;

    int maxLevel() const { return m_info.max_level; }
    int finestLevel() const { return m_finest_level; }
    int refRatio() const { return m_info.ref_ratio; }
    const AmrInfo& info() const { return m_info; }

    const Geometry& geom(int lev = 0) const { return m_geom[lev]; }
    const BoxArray& boxArray(int lev) const { return m_ba[lev]; }
    const DistributionMapping& distributionMap(int lev) const { return m_dm[lev]; }

    // Build level 0 grids and call MakeNewLevelFromScratch(0).
    void initBaseLevel();

    // Re-tag and rebuild levels `lbase`+1 .. max_level. New levels are
    // created with MakeNewLevelFromCoarse; changed levels are rebuilt with
    // RemakeLevel; vanished levels are cleared with ClearLevel.
    void regrid(int lbase);

    // Total zones on a level and the fraction of the domain it covers —
    // the quantity behind the paper's "stars occupy 0.5% of the volume"
    // AMR cost argument.
    std::int64_t numZones(int lev) const { return m_ba[lev].numPts(); }
    double coveredFraction(int lev) const;

protected:
    // Restore path (resilience): a checkpoint may hold a different number
    // of levels than the live hierarchy; drivers rebuilding themselves on
    // checkpoint grids reset the level count here before remaking levels.
    void setFinestLevel(int lev) { m_finest_level = lev; }

    // --- hooks implemented by the application ---------------------------
    // Fill level `lev` state from scratch on the given grids.
    virtual void MakeNewLevelFromScratch(int lev, const BoxArray& ba,
                                         const DistributionMapping& dm) = 0;
    // Create level `lev` state by interpolating from level lev-1.
    virtual void MakeNewLevelFromCoarse(int lev, const BoxArray& ba,
                                        const DistributionMapping& dm) = 0;
    // Rebuild level `lev` state on new grids, copying where the old and
    // new grids overlap and interpolating elsewhere.
    virtual void RemakeLevel(int lev, const BoxArray& ba,
                             const DistributionMapping& dm) = 0;
    // Delete level `lev` state.
    virtual void ClearLevel(int lev) = 0;
    // Set tags(i,j,k) != 0 wherever level `lev` needs refinement.
    virtual void ErrorEst(int lev, MultiFab& tags) = 0;

    std::vector<Geometry> m_geom;
    std::vector<BoxArray> m_ba;
    std::vector<DistributionMapping> m_dm;

private:
    // Boxes for level lev+1 from the tags of level lev, properly nested.
    BoxArray makeFineBoxes(int lev);

    AmrInfo m_info;
    int m_finest_level = 0;
};

} // namespace exa
