// The two SHA-256 compression backends behind crypto::sha256_compress,
// exposed so tests can check them against each other. Production code
// calls sha256_compress, which picks one backend per process (DESIGN.md
// §5 "Batched hashing"); nothing here selects or overrides that choice.
#pragma once

#include <array>
#include <cstdint>

namespace roleshare::crypto::detail {

using CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* block);

/// The portable FIPS 180-4 loop: the fallback on every CPU and the
/// oracle the hardware backend is tested against.
void sha256_compress_scalar(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* block);

/// The x86 SHA-NI compression function, or nullptr when this CPU (CPUID
/// leaf 7 EBX bit 29 plus SSSE3 and SSE4.1) or this build (non-x86)
/// lacks it.
CompressFn sha256_compress_sha_ni();

}  // namespace roleshare::crypto::detail
