#pragma once

// RAII for tests that run a section under Backend::Debug and must see
// every launch checked: checks every launch of the scope, collects
// violations instead of aborting, and on destruction reports each
// violation found as a test failure. The per-name check quota of the
// process's later launches is left as the scope found it.

#include "core/debug.hpp"

#include <gtest/gtest.h>

class CheckEveryLaunch {
public:
    CheckEveryLaunch() { exa::debug::clearViolations(); }
    ~CheckEveryLaunch() {
        for (const auto& v : exa::debug::violations())
            ADD_FAILURE() << v.source << ": " << v.kind << " " << v.detail;
        exa::debug::clearViolations();
    }
    CheckEveryLaunch(const CheckEveryLaunch&) = delete;
    CheckEveryLaunch& operator=(const CheckEveryLaunch&) = delete;

private:
    exa::debug::ScopedViolationTrap m_trap;
    exa::debug::ScopedCheckEveryLaunch m_check;
};
