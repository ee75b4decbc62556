#include "fleet/config.h"

#include <cmath>

namespace vega::fleet {

const std::vector<CornerSpec> &
corner_catalog()
{
    static const std::vector<CornerSpec> corners = {
        {"typ", 1.0, 6.0},
        {"hot", 2.2, 2.5},
        {"cold", 0.6, 1.0},
        {"burnin", 4.0, 0.5},
    };
    return corners;
}

const std::vector<WorkloadMix> &
mix_catalog()
{
    static const std::vector<WorkloadMix> mixes = {
        {"balanced", 0.50, 1.0, 0.20, 5.0, false, -1},
        {"compute", 0.85, 1.4, 0.35, 3.0, false, -1},
        {"bursty", 0.25, 0.8, 0.10, 2.0, false, -1},
        // The targeted wearout attack: near-saturating duty with the
        // stress concentrated on one path class, and a workload that
        // reads the victim path almost every epoch.
        {"wearout_attack", 0.98, 6.0, 0.90, 0.0, true, 0},
    };
    return mixes;
}

Expected<CornerSpec>
find_corner(const std::string &name)
{
    for (const CornerSpec &c : corner_catalog())
        if (c.name == name)
            return c;
    std::string known;
    for (const CornerSpec &c : corner_catalog()) {
        if (!known.empty())
            known += ", ";
        known += c.name;
    }
    return make_error(ErrorCode::InvalidArgument,
                      "unknown corner '" + name + "' (known: " + known +
                          ")");
}

Expected<std::vector<CornerSpec>>
parse_corner_list(const std::string &csv)
{
    std::vector<CornerSpec> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string name = csv.substr(start, comma - start);
        if (name.empty())
            return make_error(ErrorCode::InvalidArgument,
                              "empty corner name in list '" + csv + "'");
        Expected<CornerSpec> c = find_corner(name);
        if (!c)
            return c.error();
        out.push_back(std::move(*c));
        start = comma + 1;
        if (comma == csv.size())
            break;
    }
    if (out.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "corner list is empty");
    return out;
}

namespace {

bool
bad_fraction(double v)
{
    return std::isnan(v) || v < 0.0 || v > 1.0;
}

bool
bad_positive(double v)
{
    return std::isnan(v) || v <= 0.0;
}

} // namespace

Expected<FleetConfig>
validate_config(FleetConfig cfg)
{
    if (cfg.corners.empty())
        cfg.corners = corner_catalog();
    if (cfg.mixes.empty())
        cfg.mixes = mix_catalog();

    if (cfg.num_devices == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "fleet needs at least one device");
    if (cfg.num_devices > (uint64_t(1) << 32))
        return make_error(ErrorCode::InvalidArgument,
                          "num_devices exceeds the 2^32 population cap");
    if (cfg.epochs == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "fleet needs at least one epoch");
    if (cfg.slots_per_epoch == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "slots_per_epoch must be positive");
    if (cfg.epoch_cycles == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "epoch_cycles must be positive");
    if (std::isnan(cfg.min_age_years) || cfg.min_age_years < 0.0)
        return make_error(ErrorCode::InvalidArgument,
                          "min_age_years must be >= 0");
    if (std::isnan(cfg.max_age_years) ||
        cfg.max_age_years < cfg.min_age_years)
        return make_error(ErrorCode::InvalidArgument,
                          "max_age_years must be >= min_age_years");
    if (bad_fraction(cfg.overhead_budget) || cfg.overhead_budget == 0.0)
        return make_error(ErrorCode::InvalidArgument,
                          "overhead_budget must be in (0, 1]");
    if (bad_fraction(cfg.base_hazard))
        return make_error(ErrorCode::InvalidArgument,
                          "base_hazard must be in [0, 1]");
    if (bad_fraction(cfg.adversarial_fraction))
        return make_error(ErrorCode::InvalidArgument,
                          "adversarial_fraction must be in [0, 1]");

    double corner_weight = 0.0;
    for (const CornerSpec &c : cfg.corners) {
        if (c.name.empty())
            return make_error(ErrorCode::InvalidArgument,
                              "corner with empty name");
        if (bad_positive(c.stress))
            return make_error(ErrorCode::InvalidArgument,
                              "corner '" + c.name +
                                  "': stress must be positive");
        if (std::isnan(c.weight) || c.weight < 0.0)
            return make_error(ErrorCode::InvalidArgument,
                              "corner '" + c.name +
                                  "': weight must be >= 0");
        corner_weight += c.weight;
    }
    if (corner_weight <= 0.0)
        return make_error(ErrorCode::InvalidArgument,
                          "corner weights sum to zero");

    bool has_adversarial = false;
    double mix_weight = 0.0;
    for (const WorkloadMix &m : cfg.mixes) {
        if (m.name.empty())
            return make_error(ErrorCode::InvalidArgument,
                              "workload mix with empty name");
        if (bad_positive(m.duty) || m.duty > 1.0)
            return make_error(ErrorCode::InvalidArgument,
                              "mix '" + m.name +
                                  "': duty must be in (0, 1]");
        if (bad_positive(m.stress))
            return make_error(ErrorCode::InvalidArgument,
                              "mix '" + m.name +
                                  "': stress must be positive");
        if (bad_fraction(m.corruption_rate))
            return make_error(ErrorCode::InvalidArgument,
                              "mix '" + m.name +
                                  "': corruption_rate must be in [0, 1]");
        if (std::isnan(m.weight) || m.weight < 0.0)
            return make_error(ErrorCode::InvalidArgument,
                              "mix '" + m.name +
                                  "': weight must be >= 0");
        if (m.adversarial) {
            has_adversarial = true;
            if (cfg.adversarial_fraction > 0.0 && m.target_pair < 0)
                return make_error(ErrorCode::InvalidArgument,
                                  "adversarial mix '" + m.name +
                                      "' needs a target_pair >= 0");
        } else {
            mix_weight += m.weight;
        }
    }
    if (mix_weight <= 0.0)
        return make_error(ErrorCode::InvalidArgument,
                          "non-adversarial mix weights sum to zero");
    if (cfg.adversarial_fraction > 0.0 && !has_adversarial)
        return make_error(ErrorCode::InvalidArgument,
                          "adversarial_fraction > 0 but no adversarial "
                          "mix is configured");
    return cfg;
}

} // namespace vega::fleet
