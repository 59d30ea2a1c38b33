#pragma once

// Kept only for perfbench/exabench.cpp, which includes this header and
// names castro::CastroAmr; everything else uses castro/castro.hpp.
#include "castro/castro.hpp"

namespace exa::castro {
using CastroAmr = Castro;
} // namespace exa::castro
