#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mvs::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    auto value = parse_value();
    skip_ws();
    if (value && pos_ != text_.size()) {
      fail("trailing characters");
      value = std::nullopt;
    }
    if (!value && error) *error = error_ + " at offset " + std::to_string(pos_);
    return value;
  }

 private:
  void fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    return parse_number();
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    Json::Object obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) {
        fail("expected object key");
        return std::nullopt;
      }
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto value = parse_value();
      if (!value) return std::nullopt;
      obj.emplace(std::move(*key), std::move(*value));
      if (consume(',')) continue;
      if (consume('}')) return Json(std::move(obj));
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    Json::Array arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      if (consume(',')) continue;
      if (consume(']')) return Json(std::move(arr));
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              return std::nullopt;
            }
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // Encode as UTF-8 (basic multilingual plane only).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("bad escape");
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      eat_digits();
    }
    if (!digits) {
      fail("invalid number");
      return std::nullopt;
    }
    return Json(std::strtod(text_.substr(start, pos_ - start).c_str(),
                            nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void escape_into(const std::string& s, std::ostringstream& out) {
  static const char* hex = "0123456789abcdef";
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default: {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          // Remaining control characters must be \u-escaped per RFC 8259.
          out << "\\u00" << hex[(u >> 4) & 0xF] << hex[u & 0xF];
        } else {
          out << c;
        }
      }
    }
  }
  out << '"';
}

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return (v && v->is_number()) ? v->as_number() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return (v && v->is_bool()) ? v->as_bool() : fallback;
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
  const Json* v = find(key);
  return (v && v->is_string()) ? v->as_string() : fallback;
}

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  return Parser(text).run(error);
}

std::string Json::dump() const {
  std::ostringstream out;
  switch (type_) {
    case Type::kNull: out << "null"; break;
    case Type::kBool: out << (bool_ ? "true" : "false"); break;
    case Type::kNumber: {
      if (std::abs(num_) < 1e15 && num_ == static_cast<long long>(num_)) {
        out << static_cast<long long>(num_);
      } else {
        // Shortest decimal that round-trips to the same double: exported
        // documents (bench baselines, postmortems) must re-parse to
        // bit-identical numbers, not to a 6-digit approximation.
        char buf[32];
        for (int prec = 15; prec <= 17; ++prec) {
          std::snprintf(buf, sizeof buf, "%.*g", prec, num_);
          if (std::strtod(buf, nullptr) == num_) break;
        }
        out << buf;
      }
      break;
    }
    case Type::kString: escape_into(str_, out); break;
    case Type::kArray: {
      out << '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out << ',';
        out << arr_[i].dump();
      }
      out << ']';
      break;
    }
    case Type::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [key, value] : obj_) {
        if (!first) out << ',';
        first = false;
        escape_into(key, out);
        out << ':' << value.dump();
      }
      out << '}';
      break;
    }
  }
  return out.str();
}

}  // namespace mvs::util
