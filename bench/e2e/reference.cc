/**
 * @file
 * The host-speed reference: a fixed piece of work of the same kind as
 * a 5-qubit mitigated result (gate loops over complex amplitudes,
 * sampled counts in a std::map, small allocations and strings) that
 * calls nothing in the program. Its time changes only with the host,
 * so the benchmark runs it between passes and set-ups and reads the
 * host's speed from it.
 *
 * CMakeLists.txt compiles this file at a fixed -O2, so that a change to
 * the program's build flags does not move the reference with it.
 */

#include <algorithm>
#include <complex>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hh"

namespace e2e
{

namespace
{

constexpr unsigned kQubits = 5;
constexpr unsigned kAmplitudes = 1u << kQubits;
constexpr int kCircuits = 8;
constexpr int kGates = 60;
constexpr int kShots = 128;

/** Read at run time, so that the work cannot be folded at compile time. */
volatile std::uint64_t referenceSeed = 0x9e3779b97f4a7c15ULL;

/** One pass over the reference work; returns a value that depends on
 *  all of it, so that none of it can be optimized away. */
std::uint64_t
referenceWork()
{
    std::uint64_t state = referenceSeed;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::uint64_t out = 0;
    for (int circuit = 0; circuit < kCircuits; ++circuit) {
        std::vector<std::complex<double>> psi(kAmplitudes);
        psi[0] = 1.0;
        for (int g = 0; g < kGates; ++g) {
            const unsigned q = next() % kQubits;
            const unsigned r = (q + 1 + next() % (kQubits - 1)) % kQubits;
            const unsigned qb = 1u << q, rb = 1u << r;
            if (g % 3 == 0) { // Hadamard on q.
                const double h = 0.7071067811865476;
                for (unsigned i = 0; i < kAmplitudes; ++i) {
                    if (i & qb)
                        continue;
                    const std::complex<double> a = psi[i], b = psi[i | qb];
                    psi[i] = h * (a + b);
                    psi[i | qb] = h * (a - b);
                }
            } else if (g % 3 == 1) { // CX, control q, target r.
                for (unsigned i = 0; i < kAmplitudes; ++i) {
                    if ((i & qb) && !(i & rb))
                        std::swap(psi[i], psi[i | rb]);
                }
            } else { // Phase on q.
                const std::complex<double> phase = std::polar(1.0, 0.1 * g);
                for (unsigned i = 0; i < kAmplitudes; ++i) {
                    if (i & qb)
                        psi[i] *= phase;
                }
            }
        }
        std::vector<double> cdf(kAmplitudes);
        double total = 0.0;
        for (unsigned i = 0; i < kAmplitudes; ++i)
            cdf[i] = total += std::norm(psi[i]);
        std::map<std::uint32_t, std::uint32_t> counts;
        for (int shot = 0; shot < kShots; ++shot) {
            const double u =
                static_cast<double>(next() >> 11) * 0x1.0p-53 * total;
            const auto at = std::lower_bound(cdf.begin(), cdf.end(), u);
            ++counts[static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
                at - cdf.begin(), kAmplitudes - 1))];
        }
        std::vector<std::string> rows;
        for (const auto& [outcome, n] : counts) {
            rows.push_back(std::to_string(outcome) + ":" + std::to_string(n));
            out += std::uint64_t{outcome} * n;
        }
        std::sort(rows.begin(), rows.end());
        out += rows.size() + rows.front().size();
    }
    return out;
}

} // namespace

double
hostSpeed()
{
    const auto start = Clock::now();
    const std::uint64_t work = referenceWork();
    const double elapsed = seconds(start, Clock::now());
    // Using the result keeps the work from being optimized away.
    if (work == 0)
        throw std::logic_error("the reference work came out empty");
    return kReferenceSeconds / elapsed;
}

} // namespace e2e
