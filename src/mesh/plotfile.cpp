#include "mesh/plotfile.hpp"

#include "core/crc32.hpp"
#include "core/fault.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace exa {

namespace fs = std::filesystem;

namespace {

// Remove the staging directory on scope exit unless release()d — keeps
// failed writes from leaving "<dir>.tmp" litter behind a thrown error.
class TmpDirGuard {
public:
    explicit TmpDirGuard(std::string path) : m_path(std::move(path)) {}
    ~TmpDirGuard() {
        if (!m_path.empty()) {
            std::error_code ec;
            fs::remove_all(m_path, ec);
        }
    }
    void release() { m_path.clear(); }

private:
    std::string m_path;
};

std::string fabPath(const std::string& dir, int lev, std::size_t f) {
    return dir + "/Level_" + std::to_string(lev) + "/fab_" + std::to_string(f) +
           ".bin";
}

} // namespace

StagedLevel stageLevel(const MultiFab& mf, const Geometry& geom) {
    StagedLevel out;
    out.ncomp = mf.nComp();
    out.domain_len[0] = geom.domain().length(0);
    out.domain_len[1] = geom.domain().length(1);
    out.domain_len[2] = geom.domain().length(2);
    out.fabs.resize(mf.size());
    for (std::size_t f = 0; f < mf.size(); ++f) {
        // Valid-region payload: the "copy to CPU memory" — ghost zones are
        // never persisted. Plain loops in FArrayBox order (i fastest, then
        // j, k, component) so the buffer is byte-identical to the
        // FArrayBox copy the pre-refactor writer persisted.
        const Box& vb = mf.box(static_cast<int>(f));
        auto a = mf.const_array(static_cast<int>(f));
        StagedFab& sf = out.fabs[f];
        sf.box = vb;
        sf.data.resize(static_cast<std::size_t>(vb.numPts()) * out.ncomp);
        std::size_t idx = 0;
        for (int n = 0; n < out.ncomp; ++n)
            for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
                for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                    for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                        sf.data[idx++] = a(i, j, k, n);
    }
    return out;
}

std::int64_t writeStagedPlotfile(const std::string& dir,
                                 const std::vector<StagedLevel>& levels,
                                 const std::vector<std::string>& varnames,
                                 Real time, int step) {
    if (levels.empty()) {
        throw std::invalid_argument("writeStagedPlotfile: no levels");
    }
    // Stage everything under <dir>.tmp, rename into place only when every
    // byte has been written and verified good.
    const std::string tmp = dir + ".tmp";
    std::error_code ec;
    fs::remove_all(tmp, ec);
    if (!fs::create_directories(tmp)) {
        throw std::runtime_error("writePlotfile: cannot create " + tmp);
    }
    TmpDirGuard cleanup(tmp);

    std::int64_t bytes = 0;
    // The header is accumulated in memory so its own checksum can be
    // appended at the end; fab payloads are written (and checksummed) as
    // they stream out.
    std::ostringstream hdr;
    hdr << "ExaStroPlotfile-2\n";
    hdr << levels.size() << ' ' << levels[0].ncomp << '\n';
    hdr.precision(17);
    hdr << time << ' ' << step << '\n';
    for (const auto& v : varnames) hdr << v << '\n';

    for (std::size_t lev = 0; lev < levels.size(); ++lev) {
        const StagedLevel& sl = levels[lev];
        const std::string ldir = tmp + "/Level_" + std::to_string(lev);
        if (!fs::create_directories(ldir)) {
            throw std::runtime_error("writePlotfile: cannot create " + ldir);
        }
        hdr << sl.fabs.size() << ' ' << sl.domain_len[0] << ' '
            << sl.domain_len[1] << ' ' << sl.domain_len[2] << '\n';
        for (std::size_t f = 0; f < sl.fabs.size(); ++f) {
            const Box& vb = sl.fabs[f].box;
            const std::int64_t nbytes =
                static_cast<std::int64_t>(sl.fabs[f].data.size() * sizeof(Real));
            const std::uint32_t crc =
                crc32(sl.fabs[f].data.data(), static_cast<std::size_t>(nbytes));

            const std::string path =
                fabPath(tmp, static_cast<int>(lev), f);
            {
                std::ofstream bin(path, std::ios::binary);
                if (!bin) {
                    throw std::runtime_error("writePlotfile: cannot open " + path);
                }
                bin.write(reinterpret_cast<const char*>(sl.fabs[f].data.data()),
                          nbytes);
                bin.flush();
                if (!bin) {
                    throw std::runtime_error("writePlotfile: write failed for " +
                                             path);
                }
            }
            // Injection site: silent media corruption after a successful
            // write — one bit of the persisted payload flips, which restart
            // must catch via the CRC recorded above. (shouldFire is
            // mutex-protected, so this is safe from the drain thread.)
            if (fault::shouldFire(fault::Site::CheckpointBitFlip)) {
                std::fstream fix(path,
                                 std::ios::binary | std::ios::in | std::ios::out);
                char c = 0;
                fix.read(&c, 1);
                c = static_cast<char>(c ^ 0x10);
                fix.seekp(0);
                fix.write(&c, 1);
            }

            hdr << vb.smallEnd(0) << ' ' << vb.smallEnd(1) << ' ' << vb.smallEnd(2)
                << ' ' << vb.bigEnd(0) << ' ' << vb.bigEnd(1) << ' ' << vb.bigEnd(2)
                << ' ' << nbytes << ' ' << crc << '\n';
            bytes += nbytes;
        }
    }

    const std::string header_body = hdr.str();
    {
        std::ofstream out(tmp + "/Header");
        if (!out) throw std::runtime_error("writePlotfile: cannot open Header");
        out << header_body;
        out << "headercrc "
            << crc32(header_body.data(), header_body.size()) << '\n';
        out.flush();
        if (!out) throw std::runtime_error("writePlotfile: Header write failed");
    }

    // Atomic publish: drop any previous checkpoint of this name, then
    // rename the fully-written staging directory into place.
    fs::remove_all(dir, ec);
    fs::rename(tmp, dir, ec);
    if (ec) {
        throw std::runtime_error("writePlotfile: rename " + tmp + " -> " + dir +
                                 " failed: " + ec.message());
    }
    cleanup.release();
    return bytes;
}

std::int64_t writePlotfile(const std::string& dir,
                           const std::vector<const MultiFab*>& state,
                           const std::vector<Geometry>& geom,
                           const std::vector<std::string>& varnames, Real time,
                           int step) {
    if (state.empty() || state.size() != geom.size()) {
        throw std::invalid_argument("writePlotfile: level count mismatch");
    }
    std::vector<StagedLevel> levels;
    levels.reserve(state.size());
    for (std::size_t lev = 0; lev < state.size(); ++lev) {
        levels.push_back(stageLevel(*state[lev], geom[lev]));
    }
    return writeStagedPlotfile(dir, levels, varnames, time, step);
}

std::int64_t writePlotfile(const std::string& dir, const MultiFab& state,
                           const Geometry& geom,
                           const std::vector<std::string>& varnames, Real time,
                           int step) {
    return writePlotfile(dir, std::vector<const MultiFab*>{&state}, {geom},
                         varnames, time, step);
}

PlotfileHeader readPlotfileHeader(const std::string& dir) {
    std::ifstream in(dir + "/Header", std::ios::binary);
    if (!in) throw std::runtime_error("readPlotfileHeader: no Header in " + dir);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();

    PlotfileHeader out;
    std::string body = content;
    // Headers end with "headercrc <crc>\n" checksumming everything before
    // that line; verify before trusting any field.
    const std::size_t tag = content.rfind("headercrc ");
    if (tag != std::string::npos &&
        (tag == 0 || content[tag - 1] == '\n')) {
        std::istringstream tail(content.substr(tag));
        std::string word;
        std::uint32_t stored = 0;
        tail >> word >> stored;
        if (!tail) {
            throw std::runtime_error("readPlotfileHeader: bad headercrc line in " +
                                     dir);
        }
        const std::uint32_t actual = crc32(content.data(), tag);
        if (actual != stored) {
            std::ostringstream os;
            os << "readPlotfileHeader: header checksum mismatch in " << dir
               << " (stored " << stored << ", computed " << actual << ")";
            throw std::runtime_error(os.str());
        }
        body = content.substr(0, tag);
    }

    std::istringstream hdr(body);
    std::string magic;
    hdr >> magic;
    if (magic != "ExaStroPlotfile-2") {
        throw std::runtime_error("readPlotfileHeader: bad magic " + magic);
    }
    if (tag == std::string::npos) {
        throw std::runtime_error(
            "readPlotfileHeader: v2 header missing its headercrc line in " + dir +
            " (truncated write?)");
    }

    hdr >> out.nlevels >> out.ncomp >> out.time >> out.step;
    out.varnames.resize(out.ncomp);
    for (auto& v : out.varnames) hdr >> v;
    out.boxes.resize(out.nlevels);
    out.fab_bytes.resize(out.nlevels);
    out.fab_crc.resize(out.nlevels);
    for (int lev = 0; lev < out.nlevels; ++lev) {
        std::size_t nfabs;
        int nx, ny, nz;
        hdr >> nfabs >> nx >> ny >> nz;
        out.boxes[lev].resize(nfabs);
        out.fab_bytes[lev].resize(nfabs);
        out.fab_crc[lev].resize(nfabs);
        for (std::size_t f = 0; f < nfabs; ++f) {
            IntVect lo, hi;
            hdr >> lo.x >> lo.y >> lo.z >> hi.x >> hi.y >> hi.z;
            out.boxes[lev][f] = Box(lo, hi);
            hdr >> out.fab_bytes[lev][f] >> out.fab_crc[lev][f];
        }
    }
    if (!hdr) {
        throw std::runtime_error("readPlotfileHeader: truncated header in " + dir);
    }
    return out;
}

namespace {

// Read and verify one payload against a parsed header; the staged box is
// the header's box for (lev, f). Throws a message of the form
// "fab <f> of level <lev> (<path>): <why>" — readPlotfileLevel and
// verifyPlotfile both reuse these fragments verbatim.
StagedFab readVerifiedFab(const std::string& dir, const PlotfileHeader& h,
                          int lev, int f, int ncomp) {
    const std::string path = fabPath(dir, lev, static_cast<std::size_t>(f));
    auto fabError = [&](const std::string& why) {
        std::ostringstream os;
        os << "fab " << f << " of level " << lev << " (" << path << "): " << why;
        return std::runtime_error(os.str());
    };
    const Box& vb = h.boxes[lev][static_cast<std::size_t>(f)];
    const std::int64_t nbytes =
        vb.numPts() * ncomp * static_cast<std::int64_t>(sizeof(Real));
    if (h.fab_bytes[lev][static_cast<std::size_t>(f)] != nbytes) {
        std::ostringstream os;
        os << "payload size mismatch (header says "
           << h.fab_bytes[lev][static_cast<std::size_t>(f)]
           << " bytes, state needs " << nbytes << ")";
        throw fabError(os.str());
    }
    StagedFab out;
    out.box = vb;
    out.data.resize(static_cast<std::size_t>(vb.numPts()) * ncomp);
    std::ifstream bin(path, std::ios::binary);
    if (!bin) throw fabError("missing fab file");
    bin.read(reinterpret_cast<char*>(out.data.data()), nbytes);
    if (bin.gcount() != nbytes) {
        std::ostringstream os;
        os << "short read (" << bin.gcount() << " of " << nbytes << " bytes)";
        throw fabError(os.str());
    }
    const std::uint32_t stored = h.fab_crc[lev][static_cast<std::size_t>(f)];
    const std::uint32_t actual =
        crc32(out.data.data(), static_cast<std::size_t>(nbytes));
    if (actual != stored) {
        std::ostringstream os;
        os << "checksum mismatch (stored " << stored << ", computed " << actual
           << ") — corrupted payload";
        throw fabError(os.str());
    }
    return out;
}

} // namespace

StagedFab readPlotfileFab(const std::string& dir, const PlotfileHeader& h,
                          int lev, int f) {
    if (lev >= h.nlevels) {
        throw std::runtime_error("readPlotfileFab: no such level");
    }
    if (f < 0 || static_cast<std::size_t>(f) >= h.boxes[lev].size()) {
        throw std::runtime_error("readPlotfileFab: no such fab");
    }
    try {
        return readVerifiedFab(dir, h, lev, f, h.ncomp);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("readPlotfileFab: ") + e.what());
    }
}

void applyStagedFab(MultiFab& state, int f, const StagedFab& staged) {
    const Box& vb = state.box(f);
    if (!(vb == staged.box)) {
        throw std::runtime_error("applyStagedFab: box mismatch");
    }
    auto a = state.array(f);
    const int ncomp = state.nComp();
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int k = vb.smallEnd(2); k <= vb.bigEnd(2); ++k)
            for (int j = vb.smallEnd(1); j <= vb.bigEnd(1); ++j)
                for (int i = vb.smallEnd(0); i <= vb.bigEnd(0); ++i)
                    a(i, j, k, n) = staged.data[idx++];
}

std::int64_t readPlotfileLevel(const std::string& dir, int lev, MultiFab& state) {
    const PlotfileHeader h = readPlotfileHeader(dir);
    if (lev >= h.nlevels) throw std::runtime_error("readPlotfileLevel: no such level");
    if (h.boxes[lev].size() != state.size()) {
        throw std::runtime_error("readPlotfileLevel: BoxArray mismatch");
    }
    // Two passes: read + verify everything first, apply only if every fab
    // is good. The error names ALL damaged fabs, so a caller can decide
    // between per-fab restore (readPlotfileFab on the bad ones) and full
    // rollback — and `state` is never left half-restored.
    std::int64_t bytes = 0;
    std::vector<StagedFab> staged(state.size());
    std::vector<std::string> problems;
    for (std::size_t f = 0; f < state.size(); ++f) {
        const Box& vb = state.box(static_cast<int>(f));
        if (!(vb == h.boxes[lev][f])) {
            std::ostringstream os;
            os << "fab " << f << " of level " << lev << " ("
               << fabPath(dir, lev, f) << "): box mismatch";
            problems.push_back(os.str());
            continue;
        }
        try {
            staged[f] = readVerifiedFab(dir, h, lev, static_cast<int>(f),
                                        state.nComp());
            bytes += static_cast<std::int64_t>(staged[f].data.size() *
                                               sizeof(Real));
        } catch (const std::runtime_error& e) {
            problems.push_back(e.what());
        }
    }
    if (!problems.empty()) {
        std::ostringstream os;
        os << "readPlotfileLevel: " << problems.size()
           << " damaged fab(s) in " << dir << ":";
        for (const std::string& p : problems) os << "\n  " << p;
        throw std::runtime_error(os.str());
    }
    for (std::size_t f = 0; f < state.size(); ++f) {
        applyStagedFab(state, static_cast<int>(f), staged[f]);
    }
    return bytes;
}

std::vector<FabIssue> verifyPlotfile(const std::string& dir) {
    const PlotfileHeader h = readPlotfileHeader(dir);
    std::vector<FabIssue> issues;
    for (int lev = 0; lev < h.nlevels; ++lev) {
        for (std::size_t f = 0; f < h.boxes[lev].size(); ++f) {
            try {
                (void)readVerifiedFab(dir, h, lev, static_cast<int>(f), h.ncomp);
            } catch (const std::runtime_error& e) {
                issues.push_back(FabIssue{lev, static_cast<int>(f), e.what()});
            }
        }
    }
    return issues;
}

} // namespace exa
