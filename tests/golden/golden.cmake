# Golden-output check for one bench or example ("surface").
#
# Runs EXE in a fresh directory and compares the SHA-256 of its stdout,
# and of every file it writes there, with the lines recorded for
# SURFACE in DIGESTS. Each line is "<sha256>  <surface>/<output>",
# where <output> is "stdout" or the written file's name.
#
#   cmake -DSURFACE=<name> -DEXE=<path> -DWORKDIR=<dir> -DDIGESTS=<file>
#         -P golden.cmake
#
# Optional: ARGS, EXE's arguments (one space-separated string), and PRE,
# a program run first in the same directory; what PRE writes is EXE's
# input and is not digested.
#
# With NEON_GOLDEN_RECORD set in the environment, SURFACE's lines in
# DIGESTS are rewritten from this run instead of checked:
#
#   NEON_GOLDEN_RECORD=1 ctest --test-dir build -L golden

foreach(var SURFACE EXE WORKDIR DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR}/run)
set(inputs "")
if(DEFINED PRE)
  execute_process(COMMAND ${PRE}
                  WORKING_DIRECTORY ${WORKDIR}/run
                  OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PRE} exited with '${rc}'")
  endif()
  file(GLOB_RECURSE inputs RELATIVE ${WORKDIR}/run ${WORKDIR}/run/*)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                WORKING_DIRECTORY ${WORKDIR}/run
                OUTPUT_FILE ${WORKDIR}/stdout
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SURFACE} exited with '${rc}'")
endif()

# This run's digest lines, ordered by output name as DIGESTS is.
file(GLOB_RECURSE outputs RELATIVE ${WORKDIR}/run ${WORKDIR}/run/*)
if(inputs)
  list(REMOVE_ITEM outputs ${inputs})
endif()
list(APPEND outputs stdout)
list(SORT outputs)
set(actual "")
foreach(f IN LISTS outputs)
  if(f STREQUAL "stdout")
    file(SHA256 ${WORKDIR}/stdout hash)
  else()
    file(SHA256 ${WORKDIR}/run/${f} hash)
  endif()
  list(APPEND actual "${hash}  ${SURFACE}/${f}")
endforeach()

# Split DIGESTS into comment lines, SURFACE's lines and other lines.
macro(read_digests)
  set(comments "")
  set(expected "")
  set(others "")
  if(EXISTS ${DIGESTS})
    file(STRINGS ${DIGESTS} lines)
    foreach(line IN LISTS lines)
      if(line MATCHES "^#")
        list(APPEND comments "${line}")
      elseif(line MATCHES "^[0-9a-f]+  ${SURFACE}/")
        list(APPEND expected "${line}")
      elseif(NOT line STREQUAL "")
        list(APPEND others "${line}")
      endif()
    endforeach()
  endif()
endmacro()

if(DEFINED ENV{NEON_GOLDEN_RECORD})
  # Surfaces record in parallel under ctest -j: serialize the rewrite.
  file(LOCK ${WORKDIR}/../record.lock GUARD PROCESS TIMEOUT 120)
  read_digests()
  # Order by output path so the file does not depend on test order.
  set(keyed "")
  foreach(line IN LISTS others actual)
    string(REGEX REPLACE "^([0-9a-f]+)  (.*)$" "\\2|\\1" k "${line}")
    list(APPEND keyed "${k}")
  endforeach()
  list(SORT keyed)
  set(out "")
  foreach(line IN LISTS comments)
    string(APPEND out "${line}\n")
  endforeach()
  foreach(k IN LISTS keyed)
    string(REGEX REPLACE "^(.*)\\|([0-9a-f]+)$" "\\2  \\1" line "${k}")
    string(APPEND out "${line}\n")
  endforeach()
  file(WRITE ${DIGESTS} "${out}")
  message(STATUS "recorded ${SURFACE}")
  return()
endif()

read_digests()
if(NOT actual STREQUAL expected)
  string(REPLACE ";" "\n  " want "${expected}")
  string(REPLACE ";" "\n  " got "${actual}")
  message(FATAL_ERROR
    "golden output of ${SURFACE} changed (outputs kept in ${WORKDIR})\n"
    "recorded:\n  ${want}\n"
    "this run:\n  ${got}\n"
    "If the change is intended, re-record with\n"
    "  NEON_GOLDEN_RECORD=1 ctest --test-dir <build> -L golden\n"
    "and say why in CHANGES.md.")
endif()
