#include "study/study.hpp"

#include <cstdio>
#include <cstdlib>

namespace drowsy::study {

// --- StudyParams ---------------------------------------------------------------

StudyParams::StudyParams(
    std::initializer_list<std::pair<std::string, double>> defaults) {
  for (const auto& [name, value] : defaults) declare(name, value);
}

void StudyParams::declare(const std::string& name, double default_value) {
  for (const auto& [existing, value] : values_) {
    if (existing == name) {
      throw StudyError("parameter declared twice: " + name);
    }
  }
  values_.emplace_back(name, default_value);
}

void StudyParams::set(const std::string& name, double value) {
  for (auto& [existing, slot] : values_) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  std::string known;
  for (const auto& [existing, value_ignored] : values_) {
    if (!known.empty()) known += ", ";
    known += existing;
  }
  throw StudyError("unknown parameter \"" + name + "\" (known: " +
                   (known.empty() ? "none" : known) + ")");
}

void StudyParams::set_from_token(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw StudyError("--set expects name=value, got \"" + token + "\"");
  }
  const std::string name = token.substr(0, eq);
  const std::string text = token.substr(eq + 1);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw StudyError("--set " + name + ": \"" + text + "\" is not a number");
  }
  set(name, value);
}

double StudyParams::get(const std::string& name) const {
  for (const auto& [existing, value] : values_) {
    if (existing == name) return value;
  }
  throw StudyError("parameter not declared: " + name);
}

int StudyParams::get_int(const std::string& name) const {
  return static_cast<int>(get(name));
}

std::string StudyParams::describe() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    if (!out.empty()) out += " ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%g", name.c_str(), value);
    out += buf;
  }
  return out;
}

// --- StudyRegistry -------------------------------------------------------------

void StudyRegistry::add(Study study) {
  if (study.name.empty()) throw StudyError("study has no name");
  if (find(study.name) != nullptr) {
    throw StudyError("study name already registered: " + study.name);
  }
  if (!study.sweep || !study.reduce) {
    throw StudyError("study " + study.name + " lacks a sweep or reduce function");
  }
  studies_.push_back(std::move(study));
}

const Study* StudyRegistry::find(const std::string& name) const {
  for (const Study& s : studies_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

StudyParams Study::params_with(const std::vector<std::string>& overrides) const {
  StudyParams out = params;
  for (const std::string& token : overrides) out.set_from_token(token);
  return out;
}

const Study& StudyRegistry::at(const std::string& name) const {
  const Study* s = find(name);
  if (s == nullptr) throw StudyError("no such study: " + name);
  return *s;
}

std::vector<std::string> StudyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(studies_.size());
  for (const Study& s : studies_) out.push_back(s.name);
  return out;
}

// --- execution -----------------------------------------------------------------

std::vector<scenario::BatchJob> jobs_for(const Study& study,
                                         const StudyParams& params) {
  return expctl::expand(study.sweep(params));
}

StudyOutcome run_study(const Study& study, const StudyParams& params,
                       std::size_t threads) {
  const std::vector<scenario::BatchJob> jobs = jobs_for(study, params);
  scenario::BatchRunner runner(threads);
  StudyOutcome outcome;
  outcome.results = runner.run(jobs);
  outcome.trace_hits = runner.last_trace_hits();
  outcome.trace_misses = runner.last_trace_misses();
  outcome.csv = study.reduce(params, outcome.results);
  return outcome;
}

std::string reduce_study(const Study& study, const StudyParams& params,
                         const std::vector<scenario::RunResult>& results) {
  return reduce_study(study, params, jobs_for(study, params), results);
}

std::string reduce_study(const Study& study, const StudyParams& params,
                         const std::vector<scenario::BatchJob>& jobs,
                         const std::vector<scenario::RunResult>& results) {
  if (results.size() != jobs.size()) {
    throw StudyError("study " + study.name + ": got " +
                     std::to_string(results.size()) + " result(s) for a grid of " +
                     std::to_string(jobs.size()) +
                     " (wrong --set parameters, or journals from another study?)");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const scenario::BatchJob& job = jobs[i];
    const scenario::RunResult& got = results[i];
    const std::uint64_t seed = job.resolved_seed();
    if (got.scenario != job.spec.name || got.policy != scenario::to_string(job.policy) ||
        got.seed != seed) {
      throw StudyError("study " + study.name + ": result " + std::to_string(i) +
                       " is (" + got.scenario + ", " + got.policy + ", seed " +
                       std::to_string(got.seed) + ") but the grid expects (" +
                       job.spec.name + ", " + scenario::to_string(job.policy) +
                       ", seed " + std::to_string(seed) + ")");
    }
  }
  return study.reduce(params, results);
}

}  // namespace drowsy::study
