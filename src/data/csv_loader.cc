#include "src/data/csv_loader.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "src/util/string_util.h"

namespace unimatch::data {

namespace {

// Days since the civil epoch 1970-01-01 (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int64_t>(doe) - 719468LL;
}

Result<int64_t> ParseTime(const std::string& field,
                          CsvFormat::TimeUnit unit) {
  switch (unit) {
    case CsvFormat::TimeUnit::kDayIndex:
    case CsvFormat::TimeUnit::kUnixSeconds: {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad time field: " + field);
      }
      if (errno == ERANGE) {  // strtoll clamped it to LLONG_MIN/MAX
        return Status::InvalidArgument("time field out of range: " + field);
      }
      if (unit == CsvFormat::TimeUnit::kUnixSeconds) return v / 86400;
      return static_cast<int64_t>(v);
    }
    case CsvFormat::TimeUnit::kIsoDate: {
      int y = 0;
      unsigned mo = 0, d = 0;
      if (std::sscanf(field.c_str(), "%d-%u-%u", &y, &mo, &d) != 3 ||
          mo < 1 || mo > 12 || d < 1 || d > 31) {
        return Status::InvalidArgument("bad ISO date: " + field);
      }
      return DaysFromCivil(y, mo, d);
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<LoadedLog> ParseCsvLog(std::istream& in, const CsvFormat& format) {
  const int max_col = std::max(
      {format.user_column, format.item_column, format.time_column});
  struct Raw {
    int64_t user, item, day;
  };
  std::vector<Raw> raw;
  LoadedLog out;

  std::string line;
  bool first = true;
  int64_t line_no = 0;
  int64_t min_day = std::numeric_limits<int64_t>::max();
  while (std::getline(in, line)) {
    ++line_no;
    if (first && format.has_header) {
      first = false;
      continue;
    }
    first = false;
    const std::string trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto fields = StrSplit(trimmed, format.delimiter);
    auto bad = [&](const std::string& why) -> Status {
      return Status::InvalidArgument(
          StrFormat("line %lld: %s", static_cast<long long>(line_no),
                    why.c_str()));
    };
    if (static_cast<int>(fields.size()) <= max_col) {
      if (format.skip_bad_rows) {
        ++out.skipped_rows;
        continue;
      }
      return bad("too few columns");
    }
    const std::string user = StrTrim(fields[format.user_column]);
    const std::string item = StrTrim(fields[format.item_column]);
    const std::string time = StrTrim(fields[format.time_column]);
    if (user.empty() || item.empty()) {
      if (format.skip_bad_rows) {
        ++out.skipped_rows;
        continue;
      }
      return bad("empty user/item id");
    }
    auto day = ParseTime(time, format.time_unit);
    if (!day.ok()) {
      if (format.skip_bad_rows) {
        ++out.skipped_rows;
        continue;
      }
      return bad(day.status().message());
    }
    raw.push_back({out.users.GetOrAdd(user), out.items.GetOrAdd(item), *day});
    min_day = std::min(min_day, *day);
  }
  if (raw.empty()) {
    return Status::InvalidArgument("no parseable records in input");
  }

  out.log = InteractionLog(out.users.size(), out.items.size());
  for (const auto& r : raw) {
    // r.day >= min_day, so the unsigned difference is the exact span even
    // where the signed one would overflow (days at both ends of int64).
    const uint64_t day =
        static_cast<uint64_t>(r.day) - static_cast<uint64_t>(min_day);
    if (day > static_cast<uint64_t>(std::numeric_limits<Day>::max())) {
      return Status::OutOfRange("time span too large (check time_unit)");
    }
    out.log.Add(r.user, r.item, static_cast<Day>(day));
  }
  out.log.SortByUserDay();
  return out;
}

Result<LoadedLog> LoadCsvLog(const std::string& path,
                             const CsvFormat& format) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  return ParseCsvLog(in, format);
}

}  // namespace unimatch::data
