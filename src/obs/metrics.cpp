#include "obs/metrics.hpp"

#include <cmath>

namespace obs {

void Histogram::observe(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    int exp = 0;
    std::frexp(v, &exp);
    ++buckets[exp];
}

} // namespace obs
