#include "la/cg.hpp"

#include "blaslite/counters.hpp"

namespace la {

double weighted_dot(std::span<const double> w, std::span<const double> a,
                    std::span<const double> b) noexcept {
    if (w.empty()) return blaslite::ddot(a, b);
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += w[i] * a[i] * b[i];
    blaslite::detail::charge(3 * a.size(), 3 * a.size() * sizeof(double), 0);
    return s;
}

} // namespace la
