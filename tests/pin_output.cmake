# Output pin: run a command in a fresh directory, then require the file
# it writes to be byte-identical to a pinned record.
#
#   cmake -DWORKDIR=<dir> -DOUTPUT=<file written in WORKDIR>
#         (-DSHA256=<pinned digest> | -DEXPECT=<committed file>)
#         "-DCOMMAND=<program>;<args>..." -P pin_output.cmake
#
# A change that means to move the output re-pins it in the same change.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND ${COMMAND}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
if(DEFINED EXPECT)
    file(SHA256 "${EXPECT}" SHA256)
endif()
file(SHA256 "${WORKDIR}/${OUTPUT}" got)
if(NOT got STREQUAL SHA256)
    message(FATAL_ERROR "${OUTPUT}: sha256 ${got}, pinned ${SHA256}")
endif()
