# Fails when a strutil::cat(), std::to_string() or format_*() call is
# passed to an ensure() or Logger call under SRC_DIR. Those calls take
# the message parts themselves and format them only when the check fails
# or the record is emitted, so a pre-formatted part allocates a string
# on every pass.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint_eager_messages.cmake

if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR
          "usage: cmake -DSRC_DIR=<source dir> -P lint_eager_messages.cmake")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(call "([^A-Za-z0-9_]ensure|(\\.|->)(log|trace|debug|info|warn|error))\\(")
set(eager "(strutil::cat|std::to_string|format_[a-z_]+)\\(")
set(offenders 0)
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  # Blank out char literals, string literals and line comments, so only
  # code is matched. A call runs to its ';'.
  string(REGEX REPLACE "'([^'\\\\]|\\\\.)'" "''" text "${text}")
  string(REGEX REPLACE "\"([^\"\\\\]|\\\\.)*\"" "\"\"" text "${text}")
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  string(REGEX MATCHALL "${call}[^;]*${eager}" hits "${text}")
  foreach(hit IN LISTS hits)
    string(REGEX REPLACE "[ \n]+" " " hit "${hit}")
    file(RELATIVE_PATH where "${SRC_DIR}" "${source}")
    message("${where}: pass the parts, not a formatted string:${hit}")
    math(EXPR offenders "${offenders} + 1")
  endforeach()
endforeach()

if(offenders GREATER 0)
  message(FATAL_ERROR "${offenders} eager ensure()/log message(s)")
endif()
list(LENGTH sources scanned)
message(STATUS "no eager ensure()/log messages in ${scanned} files")
