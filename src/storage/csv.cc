#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace autocat {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

// Splits one logical CSV record (no embedded newlines supported in fields
// read from WriteCsvFile output, which never emits them for our data).
Result<std::vector<std::string>> SplitCsvRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return Status::ParseError("unexpected quote mid-field in: " + line);
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field in: " + line);
  }
  fields.push_back(std::move(cur));
  return fields;
}

Result<Value> ParseCell(const std::string& field, const ColumnDef& col) {
  if (field.empty()) {
    return Value();
  }
  switch (col.type) {
    case ValueType::kString:
      return Value(field);
    case ValueType::kInt64:
    case ValueType::kDouble: {
      AUTOCAT_ASSIGN_OR_RETURN(Value v, Value::ParseNumeric(field));
      return v;
    }
    case ValueType::kNull:
      return Value();
  }
  return Status::Internal("unreachable column type");
}

}  // namespace

std::string TableToCsv(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ',';
    out += QuoteField(schema.column(c).name);
  }
  out += '\n';
  Row scratch;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Row& row = table.RowRef(r, &scratch);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += ',';
      const Value& v = row[c];
      if (!v.is_null()) {
        out += QuoteField(v.ToString());
      }
    }
    out += '\n';
  }
  return out;
}

Result<Table> TableFromCsv(const Schema& schema, const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("CSV input is empty (missing header)");
  }
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();
  }
  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<std::string> header,
                           SplitCsvRecord(line));
  if (header.size() != schema.num_columns()) {
    return Status::ParseError(
        "CSV header has " + std::to_string(header.size()) +
        " fields, schema has " + std::to_string(schema.num_columns()));
  }
  for (size_t c = 0; c < header.size(); ++c) {
    if (!EqualsIgnoreCase(header[c], schema.column(c).name)) {
      return Status::ParseError("CSV header field '" + header[c] +
                                "' does not match schema column '" +
                                schema.column(c).name + "'");
    }
  }

  Table table(schema);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    AUTOCAT_ASSIGN_OR_RETURN(const std::vector<std::string> fields,
                             SplitCsvRecord(line));
    if (fields.size() != schema.num_columns()) {
      return Status::ParseError("CSV line " + std::to_string(line_no) +
                                " has " + std::to_string(fields.size()) +
                                " fields, expected " +
                                std::to_string(schema.num_columns()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      AUTOCAT_ASSIGN_OR_RETURN(Value v,
                               ParseCell(fields[c], schema.column(c)));
      row.push_back(std::move(v));
    }
    AUTOCAT_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << TableToCsv(table);
  if (!out) {
    return Status::IOError("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<Table> ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsv(schema, buffer.str());
}

}  // namespace autocat
