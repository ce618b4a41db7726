#include "types/value.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"

namespace serena {

DataType Value::type() const {
  switch (repr_.index()) {
    case 0:
      return DataType::kBool;
    case 1:
      return DataType::kInt;
    case 2:
      return DataType::kReal;
    case 3:
      return DataType::kString;
    default:
      return DataType::kBlob;
  }
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(int_value());
  return real_value();
}

bool Value::ConformsTo(DataType declared) const {
  switch (declared) {
    case DataType::kBool:
      return is_bool();
    case DataType::kInt:
      return is_int();
    case DataType::kReal:
      return is_numeric();
    case DataType::kString:
    case DataType::kService:
      return is_string();
    case DataType::kBlob:
      return is_blob();
  }
  return false;
}

Value Value::CoerceTo(DataType declared) const {
  if (declared == DataType::kReal && is_int()) {
    return Value::Real(static_cast<double>(int_value()));
  }
  return *this;
}

std::string Value::ToString() const {
  switch (repr_.index()) {
    case 0:
      return bool_value() ? "true" : "false";
    case 1:
      return std::to_string(int_value());
    case 2: {
      // Exactly printf's "%g" in the C locale (the standard defines
      // general/precision to_chars that way), without printf's locale and
      // varargs machinery: plan rendering — and so every operator
      // fingerprint — formats REAL constants through here.
      char buf[32];
      const std::to_chars_result end = std::to_chars(
          buf, buf + sizeof(buf), real_value(), std::chars_format::general, 6);
      return std::string(buf, end.ptr);
    }
    case 3:
      return "'" + string_value() + "'";
    default:
      return StringFormat("<blob:%zu>", blob_value().size());
  }
}

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return int_value() == other.int_value();
    return AsDouble() == other.AsDouble();
  }
  return repr_ == other.repr_;
}

namespace {

// Rank used for cross-type ordering; numerics share a rank so that their
// ordering is by numeric value.
int TypeRank(const Value& v) {
  if (v.is_bool()) return 0;
  if (v.is_numeric()) return 1;
  if (v.is_string()) return 2;
  return 3;
}

}  // namespace

bool Value::operator<(const Value& other) const {
  const int ra = TypeRank(*this);
  const int rb = TypeRank(other);
  if (ra != rb) return ra < rb;
  switch (ra) {
    case 0:
      return bool_value() < other.bool_value();
    case 1:
      if (is_int() && other.is_int()) return int_value() < other.int_value();
      return AsDouble() < other.AsDouble();
    case 2:
      return string_value() < other.string_value();
    default:
      return blob_value() < other.blob_value();
  }
}

std::uint64_t Value::Hash() const {
  switch (repr_.index()) {
    case 0:
      return Mix64(bool_value() ? 0x1001 : 0x1000);
    case 1:
    case 2: {
      // Hash ints and reals through the double bit pattern so that
      // Int(2) and Real(2.0) hash alike, consistent with operator==.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;  // normalize -0.0 to +0.0
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 0x2000);
    }
    case 3:
      return StableHash(string_value());
    default: {
      const Blob& b = blob_value();
      return StableHash(std::string_view(
          reinterpret_cast<const char*>(b.data()), b.size()));
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

Result<Value> ParseValueLiteral(std::string_view text, DataType declared) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty literal");
  }
  // Quoted string literal.
  if (trimmed.front() == '\'' || trimmed.front() == '"') {
    if (trimmed.size() < 2 || trimmed.back() != trimmed.front()) {
      return Status::ParseError("unterminated string literal: ",
                                std::string(trimmed));
    }
    return Value::String(std::string(trimmed.substr(1, trimmed.size() - 2)));
  }
  switch (declared) {
    case DataType::kBool: {
      if (EqualsIgnoreCase(trimmed, "true")) return Value::Bool(true);
      if (EqualsIgnoreCase(trimmed, "false")) return Value::Bool(false);
      return Status::ParseError("invalid boolean literal: ",
                                std::string(trimmed));
    }
    case DataType::kInt: {
      char* end = nullptr;
      const std::string buf(trimmed);
      const long long v = std::strtoll(buf.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::ParseError("invalid integer literal: ", buf);
      }
      return Value::Int(v);
    }
    case DataType::kReal: {
      char* end = nullptr;
      const std::string buf(trimmed);
      const double v = std::strtod(buf.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::ParseError("invalid real literal: ", buf);
      }
      return Value::Real(v);
    }
    case DataType::kString:
    case DataType::kService:
      return Value::String(std::string(trimmed));
    case DataType::kBlob:
      return Status::ParseError("blob literals are not supported");
  }
  return Status::Internal("unreachable");
}

}  // namespace serena
