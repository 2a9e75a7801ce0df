#include "serve/request.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace rascal::serve {

namespace {

// Request fields; bit `1 << field` marks one as seen.
enum Field : unsigned {
  kModel,
  kId,
  kSet,
  kMethod,
  kPrecond,
  kSparseThreshold,
  kMaxIterations,
  kGmresRestart,
  kOutputs,
  kFieldCount,  // an unknown key
};
constexpr std::array<std::string_view, kFieldCount> kFieldNames = {
    "model",          "id",           "set",
    "method",         "precond",      "sparse_threshold",
    "max_iterations", "gmres_restart", "outputs"};

// Minimal recursive-descent reader for the one-line request objects.
// Deliberately strict: no escape sequences beyond the JSON basics, no
// non-finite numbers, no unknown fields, no trailing content.
class RequestReader {
 public:
  explicit RequestReader(const std::string& text) : text_(text) {}

  Request parse() {
    Request request;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        const std::string_view key = parse_string();
        unsigned field = 0;
        while (field < kFieldCount && kFieldNames[field] != key) ++field;
        // Duplicate keys are hostile input: JSON leaves their meaning
        // undefined, and "last one wins" would let an attacker smuggle
        // a second "model" past a prefix-scanning auditor.  (An
        // unknown key is rejected at its first occurrence.)
        if (field != kFieldCount) {
          if ((seen_ & (1U << field)) != 0) fail("duplicate field '", key, "'");
          seen_ |= 1U << field;
        }
        expect(':');
        if (field == kFieldCount) fail("unknown field '", key, "'");
        parse_field(static_cast<Field>(field), request);
        skip_whitespace();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after request object");
    if ((seen_ & (1U << kModel)) == 0) {
      fail("request is missing the \"model\" field");
    }
    return request;
  }

 private:
  // Throws "request, offset <pos>: <what><name><tail>".
  [[noreturn]] void fail(std::string_view what, std::string_view name = {},
                         std::string_view tail = {}) const {
    std::string message = "request, offset ";
    message += std::to_string(pos_);
    message += ": ";
    message += what;
    message += name;
    message += tail;
    throw RequestError(message);
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_whitespace();
    if (peek() != c) fail("expected '", std::string_view(&c, 1), "'");
    ++pos_;
  }

  // Returns the decoded string: a view into the line, or into
  // `unescaped_` when it holds escapes.  Valid until the next call.
  std::string_view parse_string() {
    expect('"');
    const std::size_t begin = pos_;
    bool escaped = false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        if (!escaped) unescaped_.assign(text_, begin, pos_ - begin);
        escaped = true;
        ++pos_;
        if (pos_ >= text_.size()) fail("unterminated escape");
        switch (text_[pos_]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape sequence");
        }
      }
      if (escaped) unescaped_ += c;
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    if (escaped) return unescaped_;
    return std::string_view(text_).substr(begin, pos_ - 1 - begin);
  }

  double parse_finite_number() {
    skip_whitespace();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - begin);
    if (!std::isfinite(value)) fail("non-finite number");
    return value;
  }

  std::size_t parse_count(Field field) {
    const double value = parse_finite_number();
    if (value < 0.0 || value != std::floor(value)) {
      fail("field \"", kFieldNames[field], "\" must be a non-negative integer");
    }
    return static_cast<std::size_t>(value);
  }

  void parse_overrides(Request& request) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string name(parse_string());
      if (name.empty()) fail("empty parameter name in \"set\"");
      expect(':');
      request.overrides.set(name, parse_finite_number());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_outputs(Request& request) {
    request.outputs.clear();
    expect('[');
    skip_whitespace();
    if (peek() == ']') fail("\"outputs\" must name at least one metric");
    while (true) {
      const std::string_view name = parse_string();
      OutputKind kind{};
      if (!parse_output(name, kind)) fail("unknown output '", name, "'");
      request.outputs.push_back(kind);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void parse_field(Field field, Request& request) {
    switch (field) {
      case kModel:
        request.model_path = parse_string();
        if (request.model_path.empty()) fail("\"model\" must not be empty");
        break;
      case kId: request.id = parse_string(); break;
      case kSet: parse_overrides(request); break;
      case kMethod: {
        const std::string_view name = parse_string();
        if (!parse_method(name, request.method)) {
          fail("unknown method '", name, "'");
        }
        break;
      }
      case kPrecond: {
        const std::string_view name = parse_string();
        if (!parse_precond(name, request.precond)) {
          fail("unknown preconditioner '", name, "'");
        }
        break;
      }
      case kSparseThreshold:
        request.sparse_threshold = parse_count(field);
        break;
      case kMaxIterations: request.max_iterations = parse_count(field); break;
      case kGmresRestart: request.gmres_restart = parse_count(field); break;
      case kOutputs: parse_outputs(request); break;
      case kFieldCount: break;  // rejected by the caller
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  unsigned seen_ = 0;      // bit per Field already parsed
  std::string unescaped_;  // decoded text of the last escaped string
};

// Appends std::to_chars(value, format...): an index, or a double.
template <typename T, typename... Format>
void append_to_chars(std::string& out, T value, Format... format) {
  char buffer[32];  // 20 digits of 2^64 - 1; 24 chars of -d.16de-308
  const char* end =
      std::to_chars(buffer, buffer + sizeof buffer, value, format...).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

// Appends ,"name":"<value>" with the value JSON-escaped (quotes,
// backslashes, control characters).
void append_field(std::string& out, std::string_view name,
                  std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += ",\"";
  out += name;
  out += "\":\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
}

// Starts a record with its schema, index and (non-empty) id, reserving
// room for `extra` more bytes.
std::string record_head(std::size_t index, const std::string& id,
                        std::size_t extra) {
  std::string out;
  out.reserve(64 + id.size() + extra);
  out += "{\"schema\":\"";
  out += kResultSchema;
  out += "\",\"index\":";
  append_to_chars(out, index);
  if (!id.empty()) append_field(out, "id", id);
  return out;
}

}  // namespace

const char* to_string(OutputKind kind) {
  switch (kind) {
    case OutputKind::kAvailability: return "availability";
    case OutputKind::kUnavailability: return "unavailability";
    case OutputKind::kDowntime: return "downtime";
    case OutputKind::kMtbf: return "mtbf";
    case OutputKind::kMttf: return "mttf";
    case OutputKind::kMttr: return "mttr";
    case OutputKind::kRewardRate: return "reward_rate";
    case OutputKind::kFailureFrequency: return "failure_frequency";
  }
  return "unknown";
}

bool parse_output(std::string_view name, OutputKind& out) {
  if (name == "availability") out = OutputKind::kAvailability;
  else if (name == "unavailability") out = OutputKind::kUnavailability;
  else if (name == "downtime") out = OutputKind::kDowntime;
  else if (name == "mtbf") out = OutputKind::kMtbf;
  else if (name == "mttf") out = OutputKind::kMttf;
  else if (name == "mttr") out = OutputKind::kMttr;
  else if (name == "reward_rate") out = OutputKind::kRewardRate;
  else if (name == "failure_frequency") out = OutputKind::kFailureFrequency;
  else return false;
  return true;
}

bool parse_method(std::string_view name, ctmc::SteadyStateMethod& out) {
  if (name == "gth") out = ctmc::SteadyStateMethod::kGth;
  else if (name == "lu") out = ctmc::SteadyStateMethod::kLu;
  else if (name == "power") out = ctmc::SteadyStateMethod::kPower;
  else if (name == "gauss-seidel") out = ctmc::SteadyStateMethod::kGaussSeidel;
  else if (name == "gmres") out = ctmc::SteadyStateMethod::kGmres;
  else if (name == "bicgstab") out = ctmc::SteadyStateMethod::kBiCgStab;
  else return false;
  return true;
}

bool parse_precond(std::string_view name, linalg::PrecondKind& out) {
  if (name == "none") out = linalg::PrecondKind::kNone;
  else if (name == "jacobi") out = linalg::PrecondKind::kJacobi;
  else if (name == "ilu0") out = linalg::PrecondKind::kIlu0;
  else return false;
  return true;
}

Request parse_request(const std::string& line) {
  return RequestReader(line).parse();
}

std::string render_result_line(std::size_t index, const Request& request,
                               const std::vector<double>& values,
                               const std::string& fallback) {
  std::string out = record_head(index, request.id,
                                48 + fallback.size() +
                                    48 * request.outputs.size());
  out += ",\"status\":\"ok\"";
  if (!fallback.empty()) append_field(out, "fallback", fallback);
  out += ",\"results\":{";
  for (std::size_t k = 0; k < request.outputs.size(); ++k) {
    if (k > 0) out += ',';
    out += '"';
    out += to_string(request.outputs[k]);
    out += "\":";
    // General format at precision 17 is byte-identical to %.17g: the
    // value round-trips exactly and the text never depends on locale.
    append_to_chars(out, values.at(k), std::chars_format::general, 17);
  }
  out += "}}";
  return out;
}

std::string render_error_line(std::size_t index, const std::string& id,
                              const std::string& error,
                              const std::string& error_class) {
  std::string out =
      record_head(index, id, 48 + error.size() + error_class.size());
  out += ",\"status\":\"error\"";
  if (!error_class.empty()) append_field(out, "class", error_class);
  append_field(out, "error", error);
  out += '}';
  return out;
}

std::string render_shed_line(std::size_t index, const std::string& id,
                             const std::string& reason) {
  std::string out = record_head(index, id, 48 + reason.size());
  out += ",\"status\":\"shed\"";
  append_field(out, "reason", reason);
  out += '}';
  return out;
}

}  // namespace rascal::serve
