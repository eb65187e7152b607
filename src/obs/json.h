// Minimal JSON value type shared by every observability artifact the tools
// emit — Chrome traces, metrics snapshots, structured reports, bench
// records, dse_run.json — and by the tests that parse those artifacts back
// to validate them. Objects preserve insertion order so emitted documents
// are deterministic and diffable across runs; numbers round-trip (integral
// values print as integers, everything else with shortest exact form).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hlsw::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : type_(Type::kNumber), num_(v) {}
  Json(unsigned v) : type_(Type::kNumber), num_(v) {}
  Json(long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(long long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(unsigned long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(unsigned long long v)
      : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), str_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  long long as_int() const { return static_cast<long long>(num_); }
  const std::string& as_string() const { return str_; }

  // Array operations. push() returns *this for chaining.
  Json& push(Json v);
  std::size_t size() const;  // array/object element count
  const Json& at(std::size_t i) const;

  // Object operations. set() overwrites an existing key in place (keeping
  // its position) or appends; returns *this for chaining.
  Json& set(std::string_view key, Json v);
  const Json* find(std::string_view key) const;  // null if absent
  const std::vector<std::pair<std::string, Json>>& items() const {
    return obj_;
  }

  // Compact when indent < 0 ("key":value, no spaces); pretty otherwise.
  std::string dump(int indent = -1) const;

  // Strict parse of a complete document (trailing garbage is an error).
  // Returns false and fills *err (if given) on malformed input, including
  // arrays/objects nested deeper than kMaxDepth (the parser recurses once
  // per level, so unbounded nesting would overflow the stack).
  static bool parse(std::string_view text, Json* out,
                    std::string* err = nullptr);
  static constexpr int kMaxDepth = 512;

 private:
  void dump_to(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

// JSON string escaping (exposed for writers that stream text directly).
std::string json_escape(std::string_view s);

}  // namespace hlsw::obs
