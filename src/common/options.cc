#include "common/options.hh"

#include <cctype>
#include <charconv>
#include <fstream>

#include "common/logging.hh"

namespace srs
{

namespace
{

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max, bool hex)
{
    int base = 10;
    if (hex && text.starts_with("0x")) {
        text.remove_prefix(2);
        base = 16;
    }
    // from_chars takes no sign, whitespace or base prefix for an
    // unsigned type, and reports an empty text and overflow.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || stop != end || v > max)
        return std::nullopt;
    return v;
}

Options
Options::fromArgs(int argc, const char *const *argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            opts.positional_.push_back(tok);
            continue;
        }
        const std::string body = tok.substr(2);
        const std::size_t eq = body.find('=');
        if (eq == std::string::npos)
            opts.values_[body] = "1";
        else
            opts.values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
    return opts;
}

Options
Options::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        fatal("options: cannot open '", path, "'");
    Options opts;
    opts.path_ = path;
    std::string line;
    std::uint64_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string body = trim(line);
        if (body.empty())
            continue;
        const std::size_t eq = body.find('=');
        if (eq == std::string::npos)
            fatal(path, ":", lineNo, ": expected key=value");
        opts.values_[trim(body.substr(0, eq))] =
            trim(body.substr(eq + 1));
    }
    return opts;
}

bool
Options::has(const std::string &key) const
{
    return values_.find(key) != values_.end();
}

std::string
Options::getString(const std::string &key, const std::string &def) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::uint64_t
Options::getUnsigned(const std::string &key, std::uint64_t def,
                     std::uint64_t max, bool hex) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::optional<std::uint64_t> v =
        parseUnsigned(it->second, max, hex);
    if (!v) {
        fatal(name(key), ": '", it->second, "' is not ",
              hex ? "a decimal or 0x-hex" : "a decimal",
              " integer in 0..", max);
    }
    return *v;
}

bool
Options::getBool(const std::string &key, bool def) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal(name(key), ": '", v, "' is not a boolean");
    return def; // unreachable
}

std::string
Options::name(const std::string &key) const
{
    return path_.empty() ? "option --" + key
                         : "'" + path_ + "': key " + key;
}

void
Options::rejectUnknown() const
{
    for (const auto &[key, value] : values_) {
        (void)value;
        if (consumed_.find(key) != consumed_.end())
            continue;
        if (path_.empty())
            fatal("unknown option --", key);
        fatal("'", path_, "': unknown key '", key, "'");
    }
}

void
Options::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

} // namespace srs
