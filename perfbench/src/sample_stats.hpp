// Order statistics over timing samples.
#pragma once

#include <array>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (the "type 7" rule of R and numpy):
/// q in [0, 1]; position q * (n - 1) in the sorted samples. Throws on an
/// empty sample.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// Quartiles by the rule of Python's statistics.quantiles(data, n=4)
/// (method "exclusive"), so a spread computed here matches one computed
/// in Python from the same values. Needs at least two samples.
std::array<double, 3> quartiles(std::vector<double> samples);

}  // namespace perfbench
