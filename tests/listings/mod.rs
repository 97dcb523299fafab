//! The paper's code listings that compile, shared by `paper_listings.rs`
//! (each goes through the full pipeline) and `codegen_golden.rs` (what code
//! generation prints for each is pinned).

/// Figure 4 — the complete NetCL device code for the in-network cache.
pub const FIGURE_4: &str = r#"
#define CMS_HASHES 3
#define THRESH 512
#define GET_REQ 1
_managed_ unsigned cms[CMS_HASHES][65536];

_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42},
                                                      {3,42}, {4,42}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
"#;

/// Figure 7 — in-network AllReduce, exactly as printed (including the
/// `cnt == 1` decision; see DESIGN.md §8 for why the shipped AGG app uses a
/// retransmission-safe variant).
pub const FIGURE_7: &str = r#"
#define NUM_SLOTS 2048
#define SLOT_SIZE 32
#define NUM_WORKERS 6
_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];

_kernel(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask,
                           uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }

  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);
    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (cnt == 0)
      return ncl::reflect();
    if (cnt == 1)
      return ncl::multicast(42);
  }
  return ncl::drop();
}
"#;

/// §V-A specification examples — four kernels.
pub const SECTION_5A: &str = r#"
_kernel(1) void a(int x[3]) {}
_kernel(2) void b(int x[4]) {}
_kernel(3) void c(int _spec(4) *x) {}
_kernel(4) void d(int x, int y[2], int *z) {}
"#;

/// §V-B lookup examples.
pub const SECTION_5B: &str = r#"
_net_ _lookup_ unsigned a[] = {1,2,3};
_net_ _lookup_ ncl::kv<int,int> b[] = { {1,2}, {2,3} };
_net_ _lookup_ ncl::rv<int,int> c[] = { {{1,10},1}, {{11,20},2} };
_kernel(1) void k(unsigned q, int x, int &rx, char &m1, char &m2, char &m3) {
  m1 = ncl::lookup(a, q);
  m2 = ncl::lookup(b, x, rx);
  m3 = ncl::lookup(c, x, rx);
}
"#;

/// §V-C multi-location example (valid variant): one kernel at two devices.
pub const SECTION_5C: &str = r#"
_net_ _at(1,2) int m[42];
_kernel(1) _at(1,2) void a(int x) { m[0] = 1; }
"#;

/// §V-D kernel `b`: mutually exclusive accesses to one memory.
pub const SECTION_5D_MEMORY: &str =
    "_net_ int m[42];\n_kernel(1) void b(int x, int &o) { o = (x > 10) ? m[0] : m[1]; }";

/// §V-D ordering example, kernel `b`: a reorderable operand order.
pub const SECTION_5D_ORDERING: &str = r#"
_net_ int m1[42];
_net_ int m2[42];
_kernel(2) void b(int x, int &o) {
  if (x > 10) { o = m1[0] + m2[1]; }
  else        { o = m2[1] + m1[0]; }
}
"#;
