# Opt-in sanitizer instrumentation for the whole tree:
#   cmake -B build -S . -DROBORUN_SANITIZE=address;undefined
#   cmake -B build -S . -DROBORUN_SANITIZE=address;undefined;float-cast-overflow
#   cmake -B build -S . -DROBORUN_SANITIZE=thread
#
# Applied globally (not per-target) so roborun_core and every test/bench
# link with matching instrumentation.

set(ROBORUN_SANITIZE "" CACHE STRING
  "Semicolon-separated sanitizers to enable (address, undefined, float-cast-overflow, thread, leak)")

if(ROBORUN_SANITIZE)
  if(MSVC)
    message(FATAL_ERROR "ROBORUN_SANITIZE is only supported with GCC/Clang")
  endif()
  string(REPLACE ";" "," _roborun_san "${ROBORUN_SANITIZE}")
  message(STATUS "Sanitizers enabled: ${_roborun_san}")
  add_compile_options(-fsanitize=${_roborun_san} -fno-omit-frame-pointer)
  add_link_options(-fsanitize=${_roborun_san})
  # The ASan/UBSan lane also checks libstdc++'s preconditions (bounds on
  # operator[], std::clamp's lo <= hi, ...). ABI-compatible, unlike
  # _GLIBCXX_DEBUG, so the system gtest still links.
  if("address" IN_LIST ROBORUN_SANITIZE OR "undefined" IN_LIST ROBORUN_SANITIZE)
    add_compile_definitions(_GLIBCXX_ASSERTIONS)
  endif()
  # A UBSan report aborts the process instead of printing and running on,
  # so a test, bench or CI step fails on it.
  if("undefined" IN_LIST ROBORUN_SANITIZE OR "float-cast-overflow" IN_LIST ROBORUN_SANITIZE)
    add_compile_options(-fno-sanitize-recover=all)
    add_link_options(-fno-sanitize-recover=all)
  endif()
endif()
