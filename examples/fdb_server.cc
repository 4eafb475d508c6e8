// fdb_server — the serve path end to end: a long-lived concurrent SQL
// server over one frozen database (serve/query_server.h), speaking the
// newline-delimited text protocol of serve/protocol.h.
//
//   $ ./build/examples/fdb_server [--pipe | --port N] [--workers N]
//                                 [--cache N] [--deadline SECS]
//                                 [--max-queue N] [--enum-threads N]
//                                 [--max-memory-bytes N]
//                                 [--max-result-bytes N]
//                                 [--max-query-bytes N]
//                                 [csv files...]
//
// The --max-*-bytes knobs are the per-query resource budgets of
// serve/query_server.h (0 = unlimited); violations answer RESOURCE.
//
// Each CSV file is loaded as a relation named after the file stem; without
// files the sql_repl demo database is preloaded. Two front ends:
//   --pipe      read requests from stdin, write framed responses to stdout
//               (the default; used by the ctest smoke test)
//   --port N    listen on 127.0.0.1:N, one thread per connection, all
//               connections multiplex onto the shared worker pool
// Requests are one SQL statement per line; responses are framed as
// OK <n-lines>/ERR/TIMEOUT/BUSY/RESOURCE (see serve/protocol.h). Commands:
//   STATS       Prometheus-style metrics exposition (counters + latency
//               histograms), framed as a regular OK body so pipelining
//               clients stay in sync
//   \q          quit (pipe mode) / close the connection (socket mode)
// EXPLAIN ANALYZE <query> is plain SQL: the server answers with the
// query's span tree instead of its rows.
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/database.h"
#include "serve/query_server.h"

using namespace fdb;

namespace {

void LoadDemo(Database* db) {
  RelId orders = db->CreateRelation("orders", {"oid", "item:str"});
  RelId stock = db->CreateRelation("stock", {"sitem:str", "warehouse:str"});
  db->Insert(orders, {int64_t{1}, "Milk"});
  db->Insert(orders, {int64_t{1}, "Cheese"});
  db->Insert(orders, {int64_t{2}, "Melon"});
  db->Insert(stock, {"Milk", "North"});
  db->Insert(stock, {"Milk", "South"});
  db->Insert(stock, {"Cheese", "South"});
  db->Insert(stock, {"Melon", "North"});
}

/// Serves one request line; returns false when the session should end.
bool HandleLine(QueryServer& server, const std::string& line,
                std::string* out) {
  if (line == "\\q" || line == "quit" || line == "exit") return false;
  if (line.empty()) {
    // One framed response per request line — even an empty one, so a
    // pipelining client never desyncs.
    *out = FrameResponse(
        ServeResponse{ServeStatus::kError, "empty request", false, false});
    return true;
  }
  if (IsStatsRequest(line)) {
    *out = FrameResponse(ServeResponse{ServeStatus::kOk,
                                       server.MetricsExposition(), false,
                                       false});
    return true;
  }
  *out = FrameResponse(server.Query(line));
  return true;
}

void PipeLoop(QueryServer& server) {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string out;
    if (!HandleLine(server, line, &out)) break;
    std::cout << out << std::flush;
  }
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void ConnectionLoop(QueryServer& server, int fd) {
  std::string pending;
  char buf[4096];
  for (;;) {
    size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pending.erase(0, nl + 1);
      std::string out;
      if (!HandleLine(server, line, &out) || !WriteAll(fd, out)) {
        close(fd);
        return;
      }
    }
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) {
      close(fd);
      return;
    }
    pending.append(buf, static_cast<size_t>(n));
  }
}

int SocketLoop(QueryServer& server, int port) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listener, 64) < 0) {
    std::cerr << "bind/listen: " << std::strerror(errno) << "\n";
    close(listener);
    return 1;
  }
  std::cerr << "fdb_server listening on 127.0.0.1:" << port << "\n";
  for (;;) {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    std::thread(&ConnectionLoop, std::ref(server), fd).detach();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool pipe_mode = true;
  int port = 0;
  ServeOptions opts;
  std::vector<std::string> csv_files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pipe") {
      pipe_mode = true;
    } else if (arg == "--port") {
      pipe_mode = false;
      port = std::stoi(next("--port"));
    } else if (arg == "--workers") {
      opts.num_workers = std::stoi(next("--workers"));
    } else if (arg == "--cache") {
      opts.plan_cache_capacity =
          static_cast<size_t>(std::stoul(next("--cache")));
    } else if (arg == "--deadline") {
      opts.default_deadline_seconds = std::stod(next("--deadline"));
    } else if (arg == "--max-queue") {
      opts.max_queue = static_cast<size_t>(std::stoul(next("--max-queue")));
    } else if (arg == "--enum-threads") {
      opts.engine.enumerate.threads = std::stoi(next("--enum-threads"));
    } else if (arg == "--max-memory-bytes") {
      opts.max_memory_bytes =
          static_cast<size_t>(std::stoull(next("--max-memory-bytes")));
    } else if (arg == "--max-result-bytes") {
      opts.max_result_bytes =
          static_cast<size_t>(std::stoull(next("--max-result-bytes")));
    } else if (arg == "--max-query-bytes") {
      opts.max_query_bytes =
          static_cast<size_t>(std::stoull(next("--max-query-bytes")));
    } else {
      csv_files.push_back(arg);
    }
  }

  Database db;
  if (csv_files.empty()) {
    LoadDemo(&db);
    std::cerr << "demo database loaded: orders(oid, item), "
                 "stock(sitem, warehouse)\n";
  } else {
    for (const std::string& path : csv_files) {
      std::string name = std::filesystem::path(path).stem().string();
      db.LoadCsv(path, name);
      std::cerr << "loaded " << name << " from " << path << "\n";
    }
  }

  QueryServer server(&db, opts);
  if (pipe_mode) {
    PipeLoop(server);
    return 0;
  }
  return SocketLoop(server, port);
}
