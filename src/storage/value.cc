#include "storage/value.h"

#include <cmath>

#include "common/string_util.h"

namespace qagview::storage {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

double Value::ToDouble() const {
  switch (type_) {
    case ValueType::kInt64:
      return static_cast<double>(int_);
    case ValueType::kDouble:
      return double_;
    default:
      QAG_LOG(Fatal) << "ToDouble on non-numeric value: " << ToString();
      return 0.0;
  }
}

bool Value::IsTruthy() const {
  switch (type_) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return int_ != 0;
    case ValueType::kDouble:
      return double_ != 0.0;
    case ValueType::kString:
      return !string_.empty();
  }
  return false;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(int_);
    case ValueType::kDouble: {
      // Render integral doubles without a trailing ".000000".
      if (std::floor(double_) == double_ && std::abs(double_) < 1e15) {
        return StrCat(static_cast<int64_t>(double_));
      }
      return StrCat(double_);
    }
    case ValueType::kString:
      return string_;
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (type_ == ValueType::kString || other.type_ == ValueType::kString) {
    return type_ == other.type_ && string_ == other.string_;
  }
  return Compare(other) == 0;
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) return other.is_null() - is_null();
  if (type_ == ValueType::kString && other.type_ == ValueType::kString) {
    int c = string_.compare(other.string_);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  QAG_CHECK(type_ != ValueType::kString && other.type_ != ValueType::kString)
      << "cannot compare " << ToString() << " with " << other.ToString();
  if (type_ == ValueType::kInt64 && other.type_ == ValueType::kInt64) {
    return (int_ > other.int_) - (int_ < other.int_);
  }
  return CompareDoubles(ToDouble(), other.ToDouble());
}

}  // namespace qagview::storage
