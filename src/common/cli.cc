#include "cli.hh"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "logging.hh"
#include "status.hh"

namespace mc {

void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

CliParser::CliParser(std::string program_summary)
    : _summary(std::move(program_summary))
{
    addFlag("help", false, "show this help text and exit");
}

CliParser::Flag &
CliParser::registerFlag(const std::string &name, FlagType type,
                        const std::string &help, std::string default_text)
{
    Flag &flag = _flags[name] = Flag{};
    flag.type = type;
    flag.help = help;
    flag.defaultText = std::move(default_text);
    return flag;
}

void
CliParser::addFlag(const std::string &name, bool default_value,
                   const std::string &help)
{
    registerFlag(name, FlagType::Bool, help,
                 default_value ? "true" : "false")
        .boolValue = default_value;
}

void
CliParser::addFlag(const std::string &name, std::int64_t default_value,
                   const std::string &help)
{
    registerFlag(name, FlagType::Int, help, std::to_string(default_value))
        .intValue = default_value;
}

void
CliParser::addFlag(const std::string &name, double default_value,
                   const std::string &help)
{
    std::ostringstream text;
    text << default_value;
    registerFlag(name, FlagType::Double, help, text.str()).doubleValue =
        default_value;
}

void
CliParser::addFlag(const std::string &name, const std::string &default_value,
                   const std::string &help)
{
    registerFlag(name, FlagType::String, help, "'" + default_value + "'")
        .stringValue = default_value;
}

void
CliParser::usageError(const std::string &message) const
{
    const std::string prog =
        _programName.empty() ? "prog" : _programName;
    std::fprintf(stderr, "%s: error: %s (try --help)\n", prog.c_str(),
                 message.c_str());
    std::exit(exit_code::Usage);
}

void
CliParser::requireIntAtLeast(const std::string &name, std::int64_t min)
{
    mc_assert(_flags.count(name) && _flags.at(name).type == FlagType::Int,
              "constraint on unregistered or non-int flag --", name);
    _constraints.push_back({name, false, min});
}

void
CliParser::requirePositiveDouble(const std::string &name)
{
    mc_assert(_flags.count(name) &&
                  _flags.at(name).type == FlagType::Double,
              "constraint on unregistered or non-double flag --", name);
    _constraints.push_back({name, true, 0});
}

void
CliParser::checkConstraints() const
{
    for (const Constraint &constraint : _constraints) {
        const Flag &flag = _flags.at(constraint.flagName);
        if (constraint.isDouble) {
            if (flag.doubleValue <= 0.0) {
                std::ostringstream os;
                os << "--" << constraint.flagName
                   << " must be positive, got " << flag.doubleValue;
                usageError(os.str());
            }
        } else if (flag.intValue < constraint.minInt) {
            std::ostringstream os;
            os << "--" << constraint.flagName << " must be >= "
               << constraint.minInt << ", got " << flag.intValue;
            usageError(os.str());
        }
    }
}

void
CliParser::setFromString(Flag &flag, const std::string &name,
                         const std::string &text)
{
    switch (flag.type) {
      case FlagType::Bool:
        if (text == "true" || text == "1") {
            flag.boolValue = true;
        } else if (text == "false" || text == "0") {
            flag.boolValue = false;
        } else {
            usageError("flag --" + name + " expects a boolean, got '" +
                       text + "'");
        }
        break;
      case FlagType::Int: {
        char *end = nullptr;
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0') {
            usageError("flag --" + name + " expects an integer, got '" +
                       text + "'");
        }
        flag.intValue = v;
        break;
      }
      case FlagType::Double: {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0') {
            usageError("flag --" + name + " expects a number, got '" +
                       text + "'");
        }
        flag.doubleValue = v;
        break;
      }
      case FlagType::String:
        flag.stringValue = text;
        break;
    }
}

void
CliParser::parse(int argc, const char *const *argv)
{
    // Every flag-parsing binary gets the SIGPIPE protection: an
    // early-closing reader becomes a classifiable EPIPE, never a
    // signal-13 death (docs/RESILIENCE.md).
    ignoreSigpipe();
    _programName = argc > 0 ? argv[0] : "prog";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            _positional.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }

        auto it = _flags.find(name);
        if (it == _flags.end())
            usageError("unknown flag --" + name);
        Flag &flag = it->second;

        if (!has_value) {
            if (flag.type == FlagType::Bool) {
                flag.boolValue = true;
                continue;
            }
            if (i + 1 >= argc)
                usageError("flag --" + name + " requires a value");
            value = argv[++i];
        }
        setFromString(flag, name, value);
    }

    if (getBool("help")) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
    checkConstraints();
}

const CliParser::Flag &
CliParser::lookup(const std::string &name, FlagType type) const
{
    auto it = _flags.find(name);
    mc_assert(it != _flags.end(), "flag --", name, " was never registered");
    mc_assert(it->second.type == type, "flag --", name,
              " accessed with the wrong type");
    return it->second;
}

bool
CliParser::getBool(const std::string &name) const
{
    return lookup(name, FlagType::Bool).boolValue;
}

std::int64_t
CliParser::getInt(const std::string &name) const
{
    return lookup(name, FlagType::Int).intValue;
}

double
CliParser::getDouble(const std::string &name) const
{
    return lookup(name, FlagType::Double).doubleValue;
}

const std::string &
CliParser::getString(const std::string &name) const
{
    return lookup(name, FlagType::String).stringValue;
}

std::string
CliParser::usage() const
{
    std::ostringstream os;
    os << _summary << "\n\nusage: " << _programName << " [flags]\n\nflags:\n";
    // Indexed by FlagType.
    static const char *const kTypeNames[] = {"bool", "int", "double",
                                             "string"};
    for (const auto &[name, flag] : _flags) {
        // The registered default, not the value parse() left behind:
        // `--reps=3 --help` still documents the real default.
        os << "  --" << name << " ("
           << kTypeNames[static_cast<int>(flag.type)] << ", default "
           << flag.defaultText << ")\n      " << flag.help << "\n";
    }
    return os.str();
}

} // namespace mc
