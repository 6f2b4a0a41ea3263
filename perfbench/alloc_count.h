// Process-wide count of global operator new calls. alloc_count.cpp replaces
// the global allocation functions of the harness binary, so every heap
// allocation the simulator makes through new/delete is counted. The
// harness is single-threaded; a plain counter suffices.

#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t AllocCount();

}  // namespace perfbench
