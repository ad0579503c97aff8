#include "sim/sinks.h"

namespace malec::sim {

namespace {

/// Compact, lossless-enough number formatting for the JSON stream
/// (17 significant digits would be exact but unreadable; 10 is beyond any
/// precision the tables render with).
std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// --- ConsoleSink ------------------------------------------------------------

void ConsoleSink::table(const Table& t, const std::string&, int precision) {
  std::fprintf(out_, "%s\n", t.render(precision).c_str());
}

void ConsoleSink::note(const std::string& text) {
  std::fprintf(out_, "%s", text.c_str());
}

// --- CsvDirSink -------------------------------------------------------------

void CsvDirSink::table(const Table& t, const std::string& name,
                       int /*precision*/) {
  const std::string path = dir_ + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "CsvDirSink: cannot open %s\n", path.c_str());
    return;
  }
  const std::string data = t.csv(/*precision=*/4);
  if (std::fwrite(data.data(), 1, data.size(), f) != data.size())
    std::fprintf(stderr, "CsvDirSink: short write to %s\n", path.c_str());
  std::fclose(f);
}

// --- JsonLinesSink ----------------------------------------------------------

void JsonLinesSink::writeLine(const std::string& line) {
  if (capture_ != nullptr) {
    *capture_ += line;
    *capture_ += '\n';
  }
  if (out_ != nullptr) {
    std::fprintf(out_, "%s\n", line.c_str());
    // JSON lines is the machine-consumed stream: a crash must never
    // truncate it mid-record, so every line leaves the stdio buffer
    // immediately and a consumer tailing it sees only whole records.
    std::fflush(out_);
  }
}

void JsonLinesSink::beginSuite(const SuiteInfo& info) {
  suite_ = info.name;
  std::string line = "{\"event\":\"suite_begin\",\"suite\":\"" +
                     jsonEscape(info.name) + "\",\"title\":\"" +
                     jsonEscape(info.title) + "\",\"instructions\":" +
                     std::to_string(info.instructions) + ",\"seed\":" +
                     std::to_string(info.seed) + ",\"jobs\":" +
                     std::to_string(info.jobs) + "}";
  writeLine(line);
}

void JsonLinesSink::table(const Table& t, const std::string& name,
                          int precision) {
  std::string head = "{\"event\":\"table\",\"suite\":\"" +
                     jsonEscape(suite_) + "\",\"name\":\"" + jsonEscape(name) +
                     "\",\"title\":\"" + jsonEscape(t.title()) +
                     "\",\"precision\":" + std::to_string(precision) +
                     ",\"columns\":[";
  for (std::size_t c = 0; c < t.columns().size(); ++c) {
    if (c != 0) head += ',';
    head += '"' + jsonEscape(t.columns()[c]) + '"';
  }
  head += "]}";
  writeLine(head);
  for (const Table::Row& r : t.rows()) {
    std::string line = "{\"event\":\"row\",\"suite\":\"" + jsonEscape(suite_) +
                       "\",\"table\":\"" + jsonEscape(name) +
                       "\",\"label\":\"" + jsonEscape(r.label) +
                       "\",\"mean\":" + (r.is_mean ? "true" : "false") +
                       ",\"values\":[";
    for (std::size_t c = 0; c < r.values.size(); ++c) {
      if (c != 0) line += ',';
      line += jsonNumber(r.values[c]);
    }
    line += "]}";
    writeLine(line);
  }
}

void JsonLinesSink::note(const std::string& text) {
  writeLine("{\"event\":\"note\",\"suite\":\"" + jsonEscape(suite_) +
            "\",\"text\":\"" + jsonEscape(text) + "\"}");
}

void JsonLinesSink::endSuite() {
  writeLine("{\"event\":\"suite_end\",\"suite\":\"" + jsonEscape(suite_) +
            "\"}");
  suite_.clear();
}

}  // namespace malec::sim
