#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace mixtlb::stats
{

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    if (parent_) {
        auto &sibs = parent_->children_;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this), sibs.end());
    }
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    panic_if(counters_.count(name), "duplicate scalar stat %s",
             name.c_str());
    auto [it, inserted] = scalars_.try_emplace(name);
    panic_if(!inserted, "duplicate scalar stat %s", name.c_str());
    it->second.desc = desc;
    return it->second.stat;
}

Counter &
StatGroup::addCounter(const std::string &name, const std::string &desc)
{
    panic_if(scalars_.count(name), "duplicate counter stat %s",
             name.c_str());
    auto [it, inserted] = counters_.try_emplace(name);
    panic_if(!inserted, "duplicate counter stat %s", name.c_str());
    it->second.desc = desc;
    return it->second.stat;
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      Formula formula)
{
    auto [it, inserted] = formulas_.try_emplace(name);
    panic_if(!inserted, "duplicate formula stat %s", name.c_str());
    it->second.desc = desc;
    it->second.formula = std::move(formula);
}

const Scalar &
StatGroup::scalar(const std::string &name) const
{
    // Dotted names descend into child groups ("walker.walks").
    auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *child : children_) {
            if (child->name_ == head)
                return child->scalar(name.substr(dot + 1));
        }
        panic("unknown stat group %s under %s",
              head.c_str(), path().c_str());
    }
    auto it = scalars_.find(name);
    panic_if(it == scalars_.end(), "unknown scalar stat %s.%s",
             path().c_str(), name.c_str());
    return it->second.stat;
}

const Counter &
StatGroup::counter(const std::string &name) const
{
    auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *child : children_) {
            if (child->name_ == head)
                return child->counter(name.substr(dot + 1));
        }
        panic("unknown stat group %s under %s",
              head.c_str(), path().c_str());
    }
    auto it = counters_.find(name);
    panic_if(it == counters_.end(), "unknown counter stat %s.%s",
             path().c_str(), name.c_str());
    return it->second.stat;
}

double
StatGroup::value(const std::string &name) const
{
    auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *child : children_) {
            if (child->name_ == head)
                return child->value(name.substr(dot + 1));
        }
        panic("unknown stat group %s under %s",
              head.c_str(), path().c_str());
    }
    if (auto it = counters_.find(name); it != counters_.end())
        return static_cast<double>(it->second.stat.value());
    auto it = scalars_.find(name);
    panic_if(it == scalars_.end(), "unknown stat %s.%s",
             path().c_str(), name.c_str());
    return it->second.stat.value();
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = path();
    for (const auto &[name, entry] : counters_) {
        os << std::left << std::setw(48) << (prefix + "." + name)
           << std::setw(16) << entry.stat.value()
           << "# " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : scalars_) {
        os << std::left << std::setw(48) << (prefix + "." + name)
           << std::setw(16) << entry.stat.value()
           << "# " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : formulas_) {
        os << std::left << std::setw(48) << (prefix + "." + name)
           << std::setw(16) << entry.formula()
           << "# " << entry.desc << "\n";
    }
    for (const auto *child : children_)
        child->dump(os);
}

void
StatGroup::resetStats()
{
    for (auto &[name, entry] : scalars_)
        entry.stat.reset();
    for (auto &[name, entry] : counters_)
        entry.stat.reset();
    for (auto *child : children_)
        child->resetStats();
}

} // namespace mixtlb::stats
