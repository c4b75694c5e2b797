#include "subc/runtime/hashing.hpp"

#include <cstdlib>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define SUBC_HAVE_MMAP 1
#endif

namespace subc::detail {

void* map_zero_pages(std::size_t bytes) {
#ifdef SUBC_HAVE_MMAP
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
#ifdef MADV_NOHUGEPAGE
  // Advisory: where it fails, a touch may back a whole huge page, which
  // costs memory but not correctness.
  madvise(pages, bytes, MADV_NOHUGEPAGE);
#endif
  return pages;
#else
  void* pages = std::calloc(bytes, 1);
  if (pages == nullptr) {
    throw std::bad_alloc();
  }
  return pages;
#endif
}

void unmap_zero_pages(void* pages, std::size_t bytes) noexcept {
#ifdef SUBC_HAVE_MMAP
  munmap(pages, bytes);
#else
  static_cast<void>(bytes);
  std::free(pages);
#endif
}

}  // namespace subc::detail
