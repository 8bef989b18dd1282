# Out-of-range sweep over every numeric flag of one tool:
#
#   cmake -DTOOL=build/tools/deepcrawl_crawl -P tools/flag_range_sweep.cmake
#
# Reads the ranges back from `TOOL --help` ("--name (default: D; in [a, b])"
# or "; >= a"), fails if a numeric flag (an unquoted, non-boolean default)
# shows none, and passes each numeric flag, alone, a value just past each
# bound plus "nan". Every run must print "error: invalid_argument: --name"
# (the parser's rejection, not a later failure of the run) and never
# "CHECK failed" or "terminate called". The parser rejects all of them
# before a table, thread or socket exists, so the sweep starts none.
#
# Past a bound means bound - 1 and bound + 1 for an integer, the next
# integer outward for a fractional bound, and a 20-digit literal where
# that leaves int64_t. The ranges themselves are pinned by the
# hand-written CliFlagsTest cases in tools/CMakeLists.txt: a sweep that
# reads them from --help cannot tell a wrong range from a right one.

if(NOT TOOL)
  message(FATAL_ERROR "usage: cmake -DTOOL=<binary> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(kInt64Min "-9223372036854775808")
set(kBelowInt64 "-99999999999999999999")
set(kAboveInt64 "99999999999999999999")

execute_process(COMMAND "${TOOL}" --help
  OUTPUT_VARIABLE help RESULT_VARIABLE rc TIMEOUT 30)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} --help exited ${rc}")
endif()

# CMake lists split on ';', which the range text uses; swap it first.
string(REPLACE ";" "|" help "${help}")
string(REGEX MATCHALL "\n  --[a-z0-9-]+ \\(default: [^\n]*" headers "${help}")

# Sets `out` to the integer part of the decimal `bound` plus `step`
# (-1 or 1), which lies past the bound in the direction of `step`.
function(step_past bound step out)
  if(bound MATCHES "^(-?[0-9]+)(\\.[0-9]*)?$")
    set(whole "${CMAKE_MATCH_1}")
  elseif(bound MATCHES "^[0-9](\\.[0-9]+)?e-[0-9]+$")
    set(whole 0)  # a tiny positive bound such as the smallest double
  else()
    message(FATAL_ERROR "cannot step past bound '${bound}'")
  endif()
  math(EXPR value "${whole} + (${step})")
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

set(numeric 0)
set(runs 0)
set(failures "")
foreach(header IN LISTS headers)
  string(REGEX MATCH "--([a-z0-9-]+) \\(default: (.*)\\)$" _ "${header}")
  set(name "${CMAKE_MATCH_1}")
  set(rest "${CMAKE_MATCH_2}")
  if(rest MATCHES "^\"" OR rest MATCHES "^(true|false)$")
    continue()  # string and boolean flags take no range
  endif()
  math(EXPR numeric "${numeric} + 1")
  if(rest MATCHES "^[^|]*\\| in \\[([^],]+), ([^]]+)\\]$")
    set(min "${CMAKE_MATCH_1}")
    set(max "${CMAKE_MATCH_2}")
    step_past("${max}" 1 above)
  elseif(rest MATCHES "^[^|]*\\| >= (.+)$")
    set(min "${CMAKE_MATCH_1}")
    set(above "${kAboveInt64}")
  else()
    list(APPEND failures "--${name} shows no range: (default: ${rest})")
    continue()
  endif()
  if(min STREQUAL kInt64Min)
    set(below "${kBelowInt64}")
  else()
    step_past("${min}" -1 below)
  endif()

  foreach(value "${below}" "${above}" nan)
    math(EXPR runs "${runs} + 1")
    execute_process(COMMAND "${TOOL}" "--${name}=${value}"
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc TIMEOUT 30)
    set(output "${out}${err}")
    if(output MATCHES "CHECK failed|terminate called" OR
       NOT output MATCHES "error: invalid_argument: --${name}[: ]")
      string(REGEX MATCH "^[^\n]*" first_line "${output}")
      list(APPEND failures
        "--${name}=${value}: exit ${rc}, first line: ${first_line}")
    endif()
  endforeach()
endforeach()

if(numeric EQUAL 0)
  message(FATAL_ERROR "no numeric flag found in ${TOOL} --help")
endif()
if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "range sweep of ${TOOL} failed:\n  ${report}")
endif()
message(STATUS "${TOOL}: ${numeric} numeric flags, ${runs} out-of-range "
               "values, all rejected")
