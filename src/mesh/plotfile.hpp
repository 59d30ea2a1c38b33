#pragma once

#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace exa {

// Plotfile and checkpoint I/O, AMReX-flavored: a directory containing an
// ASCII Header (grid metadata, variable names, time) and one raw binary
// file per fab under Level_<n>/.
//
// In the paper's architecture this is one of only two places where
// simulation data crosses back to the host ("checkpointing the simulation
// state to disk, and MPI transfers"); writePlotfile/writeCheckpoint return
// the bytes staged so callers can charge DeviceModel::transferTime — the
// copy is explicitly a host *copy*, not a migration ("it involves making
// a copy to CPU memory, not migrating the data to the CPU").
//
// Integrity (format version 2, magic "ExaStroPlotfile-2"):
//   * every fab payload carries its byte count and CRC32 in the Header;
//   * the Header itself ends with a "headercrc" line checksumming all
//     preceding header bytes;
//   * the whole directory is written to "<dir>.tmp" and atomically renamed
//     into place, so a crashed or failed write never leaves a directory
//     that looks like a valid checkpoint;
//   * every stream operation is checked — a failed write throws instead of
//     reporting success, and restart verifies sizes and checksums per fab,
//     naming the fab that failed.
// Any other magic (including the unchecksummed version 1) is refused.

// One fab's valid-region payload, copied into a plain host buffer in
// FArrayBox layout (Fortran order, component-last) — exactly the bytes
// that go to disk. Staging is the only part of a checkpoint that touches
// MultiFab data, so a staged level can be handed to a background writer
// thread while the step loop keeps mutating the live state.
struct StagedFab {
    Box box;
    std::vector<Real> data;
};

struct StagedLevel {
    int ncomp = 0;
    int domain_len[3] = {0, 0, 0};
    std::vector<StagedFab> fabs;
};

// Blocking valid-region copy of one MultiFab into host buffers. Runs as
// plain loops on the calling thread — no kernel launches — so the result
// (and writeStagedPlotfile on it) is safe off the main thread, where
// ParallelFor's backend state must never be touched.
StagedLevel stageLevel(const MultiFab& mf, const Geometry& geom);

// Write staged levels as a plotfile. Pure host code (file I/O + CRC only):
// this is the half of writePlotfile the async checkpointer's drain thread
// runs. Same atomic <dir>.tmp + rename protocol as writePlotfile.
std::int64_t writeStagedPlotfile(const std::string& dir,
                                 const std::vector<StagedLevel>& levels,
                                 const std::vector<std::string>& varnames,
                                 Real time, int step);

// Write one level (or several) of state. Returns total payload bytes.
// Throws std::runtime_error if any part of the write fails; on failure the
// destination directory is left untouched (no partial checkpoint).
std::int64_t writePlotfile(const std::string& dir,
                           const std::vector<const MultiFab*>& state,
                           const std::vector<Geometry>& geom,
                           const std::vector<std::string>& varnames, Real time,
                           int step);

// Single-level convenience overload.
std::int64_t writePlotfile(const std::string& dir, const MultiFab& state,
                           const Geometry& geom,
                           const std::vector<std::string>& varnames, Real time,
                           int step);

// Metadata read back from a plotfile/checkpoint header.
struct PlotfileHeader {
    int nlevels = 0;
    int ncomp = 0;
    Real time = 0.0;
    int step = 0;
    std::vector<std::string> varnames;
    std::vector<std::vector<Box>> boxes;                 // per level
    std::vector<std::vector<std::int64_t>> fab_bytes;    // per level
    std::vector<std::vector<std::uint32_t>> fab_crc;     // per level
};

// Parse and verify the Header, including its own checksum.
PlotfileHeader readPlotfileHeader(const std::string& dir);

// Restart: read level `lev` data into `state`, whose BoxArray must match
// the file's. Returns bytes read. Throws std::runtime_error naming *every*
// corrupted/missing fab (missing file, short read, or checksum mismatch)
// so a caller deciding between per-fab restore and full rollback sees the
// complete damage report; `state` is untouched unless every fab is good.
std::int64_t readPlotfileLevel(const std::string& dir, int lev, MultiFab& state);

// Localized recovery: read a single fab's payload (size- and CRC-verified)
// against an already-parsed header. Throws naming the fab on any failure.
StagedFab readPlotfileFab(const std::string& dir, const PlotfileHeader& h,
                          int lev, int f);

// Copy a staged payload into fab `f` of `state` (plain host loops; valid
// region only). The staged box must equal the fab's valid box.
void applyStagedFab(MultiFab& state, int f, const StagedFab& staged);

// One damaged payload found by verifyPlotfile.
struct FabIssue {
    int lev = 0;
    int fab = 0;
    std::string what;
};

// Integrity sweep without touching any MultiFab: verify the header (throws
// if the header itself is unreadable or fails its checksum) and every fab
// payload's size + CRC, returning ALL damaged fabs — the per-fab damage
// report localized recovery needs to choose restore granularity.
std::vector<FabIssue> verifyPlotfile(const std::string& dir);

} // namespace exa
